//! Parity oracles: the slow, straightforward twins of the production
//! linking dataflow, kept only to be compared against.
//!
//! Production runs one monitored schema-linking path: a
//! [`LinkSession`](rts_core::session::LinkSession) that generates the
//! stream lazily, monitors it with the batched mBPP, traces flags back
//! through a shared [`LinkContext`] and regenerates correction rounds
//! incrementally. Each function here reproduces one stage of that path
//! the way it was first written:
//!
//! * [`run_rts_linking_monolithic`] — the pre-session blocking loop,
//!   which regenerates and re-monitors every round from scratch;
//! * [`trace_back_reference`] — Algorithm 2 re-decoding the full prefix
//!   on every step (quadratic in the stream length);
//! * [`implicated_elements_reference`] — the clone-per-flag trie
//!   rebuild the shared context replaced;
//! * [`flag_trace_per_token`] — one probe pass per (token, probe)
//!   through [`Mbpp::is_branch`] instead of the batched scoring path.
//!
//! [`Oracle`] selects which of them the monolith runs on. The parity
//! properties in `tests/proptest_invariants.rs` check the production
//! path against every [`Oracle::ALL`] setting in one process; the
//! `perf` bin and the criterion benches time them as `*_baseline`
//! rows. Every oracle is a pure function of its inputs and seeds, like
//! the production path it pins (`rts-analyze` holds this file to the
//! determinism pass).

use benchgen::schemagen::DbMeta;
use benchgen::Instance;
use rts_core::abstention::{LinkScratch, MitigationPolicy, Round0, RtsConfig, RtsOutcome};
use rts_core::bpp::Mbpp;
use rts_core::context::LinkContext;
use rts_core::traceback::{column_trie_in, table_trie_in};
use simlm::vocab::{TokenId, TOK_END};
use simlm::{decode_elements, Decision, GenMode, GenerationTrace, LinkTarget, SchemaLinker};
use simlm::{Trie, Vocab};
use std::collections::{HashMap, HashSet};
use tinynn::rng::SplitMix64;

/// Which oracle dataflow [`run_rts_linking_monolithic`] runs. The
/// default (every field `false`) is the monolithic loop over the
/// production stages: lazy synthesis, batched monitoring and the
/// shared context's trace back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Oracle {
    /// Monitor with [`flag_trace_per_token`] instead of the batched
    /// scoring path.
    pub per_token: bool,
    /// Synthesize the full hidden stack for every generated trace
    /// instead of only the layers the monitor reads (the pre-lazy
    /// behaviour).
    pub eager: bool,
    /// The pre-`LinkContext` path: generate the unmonitored
    /// counterfactual explicitly, regenerate and re-monitor the stream
    /// on every correction round even when no override changed it,
    /// and trace back through [`implicated_elements_reference`] instead
    /// of any context handed in.
    pub reference: bool,
}

impl Oracle {
    /// The four settings every parity property iterates: the monolith
    /// alone, then each oracle knob on top of it.
    pub const ALL: [Oracle; 4] = [
        Oracle {
            per_token: false,
            eager: false,
            reference: false,
        },
        Oracle {
            per_token: true,
            eager: false,
            reference: false,
        },
        Oracle {
            per_token: false,
            eager: true,
            reference: false,
        },
        Oracle {
            per_token: false,
            eager: false,
            reference: true,
        },
    ];
}

/// The round state: round 0 may be borrowed from the caller
/// ([`Round0`]); regenerated rounds are owned (boxed so the two
/// variants stay the same size).
enum Round<'a> {
    Borrowed(Round0<'a>),
    Owned(Box<(GenerationTrace, Vocab)>),
}

impl Round<'_> {
    fn trace(&self) -> &GenerationTrace {
        match self {
            Round::Borrowed(r) => r.trace,
            Round::Owned(r) => &r.0,
        }
    }

    fn vocab(&self) -> &Vocab {
        match self {
            Round::Borrowed(r) => r.vocab,
            Round::Owned(r) => &r.1,
        }
    }
}

/// The pre-session monolithic mitigation loop: one blocking function
/// interleaving generation, monitoring and policy handling. Every
/// session driver must reproduce it bit for bit — same flags, same
/// merge-RNG stream, same interventions, same outcomes (the
/// `session_linking_matches_monolithic_loop` parity proptest).
///
/// `ctx`/`round0` select the entry-point shape being mirrored:
/// `run_rts_linking_in` (`ctx` supplied), `run_rts_linking_from`
/// (`ctx` + `round0`). Without a context the loop traces flags back
/// through [`implicated_elements_reference`].
///
/// Invariant: the loop runs context-backed exactly when
/// `knobs.reference` is false (the reference path reproduces the
/// pre-context costs: explicit counterfactual generation, regeneration
/// every round, and a clone-per-flag trie rebuild). Both paths produce
/// bit-identical outcomes — generation never consumes the instance RNG
/// (its streams are self-seeded from `(seed, instance, position)`), so
/// skipping a redundant regeneration or the counterfactual leaves the
/// merge RNG, flags and decisions untouched.
#[allow(clippy::too_many_arguments)] // the one fully-explicit reference
pub fn run_rts_linking_monolithic(
    model: &SchemaLinker,
    mbpp: &Mbpp,
    inst: &Instance,
    meta: &DbMeta,
    target: LinkTarget,
    ctx: Option<&LinkContext>,
    round0: Option<Round0<'_>>,
    policy: &MitigationPolicy<'_>,
    config: &RtsConfig,
    knobs: Oracle,
    scratch: &mut LinkScratch,
) -> RtsOutcome {
    // The reference path must pay the clone-per-flag trie rebuild even
    // if a caller handed us a context alongside the knob.
    let ctx = if knobs.reference { None } else { ctx };
    let gold = SchemaLinker::gold_elements(inst, target);
    let gold_set = {
        let mut g = gold.clone();
        g.sort();
        g
    };
    let mut rng = rts_core::par::instance_rng(config.seed, inst.id);

    // Lazy hidden-state synthesis: monitored traces only materialise
    // the layers the mBPP's selected probes read (~k of n_layers). Both
    // are observably identical to eager full-stack generation
    // (per-layer gaussian streams are independently seeded), so flags,
    // outcomes and the experiment corpus are unchanged.
    let monitor_layers = if knobs.eager {
        simlm::LayerSet::all()
    } else {
        mbpp.layer_set()
    };

    // TAR/FAR accounting needs the *unmonitored* run's predicted set.
    // Round 0 of the monitored loop runs with no overrides, so its
    // stream IS the unmonitored counterfactual — deriving the answer
    // from it below makes the extra generation redundant. The reference
    // path keeps the explicit extra generation (materialising zero
    // hidden layers, as before).
    let mut would_be_correct: Option<bool> = if knobs.reference {
        let baseline_layers = if knobs.eager {
            simlm::LayerSet::all()
        } else {
            simlm::LayerSet::none()
        };
        let mut vocab = Vocab::new();
        let baseline = model.generate_with_layers(
            inst,
            &mut vocab,
            target,
            GenMode::Free,
            &baseline_layers,
            &mut scratch.synth,
        );
        Some(baseline.predicted_set() == gold_set)
    } else {
        None
    };

    let max_rounds = if config.max_rounds == 0 {
        gold.len() + 2
    } else {
        config.max_rounds
    };
    let mut overrides: HashMap<String, Decision> = HashMap::new();
    let mut handled: HashSet<usize> = HashSet::new();
    let mut n_interventions = 0usize;
    let mut n_flags = 0usize;

    let mut cur: Option<Round<'_>> = round0.map(Round::Borrowed);
    // Have `overrides` changed since `cur` was generated? Clean rounds
    // (Surrogate "continue unchanged") would regenerate a bit-identical
    // stream; reusing the trace changes nothing observable. The flags
    // are still recomputed each round — the merge RNG advances across
    // rounds, so round k's flags are not round 0's.
    let mut stale = false;

    for _round in 0..max_rounds {
        let regenerate = match &cur {
            None => true,
            Some(_) => stale || knobs.reference,
        };
        if regenerate {
            let mut vocab = Vocab::new();
            let trace = model.generate_with_overrides_and_layers(
                inst,
                &mut vocab,
                target,
                GenMode::Free,
                &overrides,
                &monitor_layers,
                &mut scratch.synth,
            );
            cur = Some(Round::Owned(Box::new((trace, vocab))));
            stale = false;
        }
        let round = cur.as_ref().expect("round state populated");
        let trace = round.trace();
        let vocab = round.vocab();
        if would_be_correct.is_none() {
            // Round 0, no overrides: this stream is the counterfactual.
            would_be_correct = Some(trace.predicted_set() == gold_set);
        }
        let flags = if knobs.per_token {
            flag_trace_per_token(mbpp, trace, &mut rng)
        } else {
            mbpp.flag_trace_with_scratch(trace, &mut rng, &mut scratch.bpp)
        };

        // First actionable flag: one raised on a not-yet-handled element.
        let mut actionable: Option<(usize, usize)> = None; // (position, element_idx)
        for (pos, &flagged) in flags.iter().enumerate() {
            if !flagged {
                continue;
            }
            n_flags += 1;
            if actionable.is_none() {
                if let Some(ei) = trace.steps[pos].element_idx {
                    if !handled.contains(&ei) {
                        actionable = Some((pos, ei));
                    }
                }
            }
        }

        let Some((branch_pos, element_idx)) = actionable else {
            // Clean run (or only spurious separator flags): accept.
            let predicted = trace.predicted_set();
            let correct = predicted == gold_set;
            return RtsOutcome {
                abstained: false,
                predicted,
                correct,
                would_be_correct: would_be_correct.unwrap_or(false),
                n_interventions,
                n_flags,
            };
        };

        match policy {
            MitigationPolicy::AbstainOnly => {
                return RtsOutcome {
                    abstained: true,
                    predicted: Vec::new(),
                    correct: false,
                    would_be_correct: would_be_correct.unwrap_or(false),
                    n_interventions,
                    n_flags,
                };
            }
            MitigationPolicy::Surrogate(surrogate) => {
                let implicated = implicated(ctx, vocab, meta, target, &trace.tokens, branch_pos);
                n_interventions += 1;
                let is_table = target == LinkTarget::Tables;
                // §3.3: halt only if the surrogate explicitly confirms
                // irrelevance of the implicated elements.
                let all_irrelevant = !implicated.is_empty()
                    && implicated
                        .iter()
                        .all(|e| !surrogate.is_relevant(inst, e, is_table));
                if all_irrelevant {
                    return RtsOutcome {
                        abstained: true,
                        predicted: Vec::new(),
                        correct: false,
                        would_be_correct: would_be_correct.unwrap_or(false),
                        n_interventions,
                        n_flags,
                    };
                }
                // Otherwise generation continues unchanged; don't
                // re-consult for the same element. The stream is not
                // stale — the next round reuses it.
                handled.insert(element_idx);
            }
            MitigationPolicy::Human(oracle) => {
                let implicated = implicated(ctx, vocab, meta, target, &trace.tokens, branch_pos);
                n_interventions += 1;
                let is_table = target == LinkTarget::Tables;
                let gold_element = &gold[element_idx];
                // Confirm candidates in turn (§3.3): an affirmed
                // candidate is pinned and generation proceeds with it.
                // A candidate that is already linked elsewhere in the
                // answer cannot fill this slot (affirming it would just
                // duplicate the element), so it is skipped and the
                // interaction falls through to the "name the correct
                // element" request.
                let mut resolved: Option<String> = None;
                for cand in &implicated {
                    let already_linked = cand != gold_element && trace.predicted.contains(cand);
                    if already_linked {
                        continue;
                    }
                    let truly = gold_set.binary_search(cand).is_ok();
                    if oracle.judge_relevance(inst, cand, is_table, truly) {
                        resolved = Some(cand.clone());
                        break;
                    }
                }
                // All rejected: the user names the correct element.
                let chosen = resolved.unwrap_or_else(|| {
                    let distractors: Vec<String> = inst
                        .links
                        .iter()
                        .filter(|l| l.element.to_string() == *gold_element)
                        .flat_map(|l| l.confusables.iter())
                        .filter(|c| c.alt.is_table() == is_table)
                        .map(|c| c.alt.to_string())
                        .collect();
                    oracle.provide_element(inst, gold_element, &distractors, is_table)
                });
                let decision = if &chosen == gold_element {
                    Decision::Correct
                } else {
                    Decision::Substitute(chosen)
                };
                overrides.insert(gold_element.clone(), decision);
                handled.insert(element_idx);
                // The pinned decision changes the stream: regenerate.
                stale = true;
            }
        }
    }

    // Round cap exceeded: give up and abstain (defensive; unreachable in
    // practice because every round handles one element).
    RtsOutcome {
        abstained: true,
        predicted: Vec::new(),
        correct: false,
        would_be_correct: would_be_correct.unwrap_or(false),
        n_interventions,
        n_flags,
    }
}

/// Algorithm 2 for the monolith: through the shared context's cached
/// trie, or — on the reference path, where no context exists — by
/// cloning the generation vocabulary and rebuilding the trie in its id
/// space (the pre-context per-flag cost).
fn implicated(
    ctx: Option<&LinkContext>,
    vocab: &Vocab,
    meta: &DbMeta,
    target: LinkTarget,
    tokens: &[TokenId],
    branch_pos: usize,
) -> Vec<String> {
    match ctx {
        Some(ctx) => ctx.implicated_elements(vocab, tokens, branch_pos),
        None => implicated_elements_reference(vocab, meta, target, tokens, branch_pos),
    }
}

/// The clone-per-flag reference for
/// [`LinkContext::implicated_elements`]: clone the generation
/// vocabulary, rebuild the candidate trie in its id space, and trace
/// back by re-decoding the full prefix each step — exactly what every
/// flag paid before the shared context existed.
pub fn implicated_elements_reference(
    gen_vocab: &Vocab,
    meta: &DbMeta,
    target: LinkTarget,
    tokens: &[TokenId],
    branch_pos: usize,
) -> Vec<String> {
    let mut v = gen_vocab.clone();
    let trie = match target {
        LinkTarget::Tables => table_trie_in(&mut v, meta),
        LinkTarget::Columns => column_trie_in(&mut v, meta),
    };
    trace_back_reference(&v, &trie, tokens, branch_pos)
}

/// The pre-incremental [`rts_core::traceback::trace_back`]: re-runs
/// [`decode_elements`] over the full prefix on every loop iteration
/// (O(n²) in the stream length). The reference the incremental decoder
/// is pinned against (`traceback_incremental_matches_reference` in the
/// parity proptests).
pub fn trace_back_reference(
    vocab: &Vocab,
    trie: &Trie,
    tokens: &[TokenId],
    branch_pos: usize,
) -> Vec<String> {
    assert!(branch_pos < tokens.len(), "branch position out of range");
    let end_tok = vocab.get(TOK_END);

    let (pre, _) = decode_elements(vocab, &tokens[..branch_pos]);
    let mut upto = branch_pos + 1;
    loop {
        let (after, partial) = decode_elements(vocab, &tokens[..upto]);
        let fresh: Vec<String> = after.iter().filter(|e| !pre.contains(e)).cloned().collect();
        if !fresh.is_empty() {
            return fresh;
        }
        if upto < tokens.len() {
            if Some(tokens[upto]) == end_tok {
                if let Some(last) = after.last() {
                    return vec![last.clone()];
                }
            }
            upto += 1;
            continue;
        }
        if !partial.is_empty() {
            if let Some((_suffix, name)) = trie.cheapest_completion(&partial) {
                if !pre.contains(&name.to_string()) {
                    return vec![name.to_string()];
                }
            }
        }
        return after.last().map(|e| vec![e.clone()]).unwrap_or_default();
    }
}

/// The per-token monitoring loop: one scaler transform and one MLP
/// forward per (token, probe) through [`Mbpp::is_branch`]. The baseline
/// the batched [`Mbpp::flag_trace_with_scratch`] is benchmarked and
/// parity-tested against: same flags, same merge-RNG draws.
pub fn flag_trace_per_token(
    mbpp: &Mbpp,
    trace: &GenerationTrace,
    rng: &mut SplitMix64,
) -> Vec<bool> {
    trace
        .steps
        .iter()
        .map(|s| mbpp.is_branch(&s.hidden, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::{Benchmark, BenchmarkProfile};
    use rts_core::abstention::run_rts_linking_in;
    use rts_core::bpp::{BppScratch, MbppConfig, MergeMethod, ProbeConfig};
    use rts_core::branching::BranchDataset;
    use rts_core::context::LinkContexts;
    use rts_core::human::{Expertise, HumanOracle};
    use rts_core::session::{drive_session, CtxHandle, LinkSession};
    use rts_core::surrogate::SurrogateModel;
    use rts_core::traceback::{column_trie, table_trie, trace_back};

    fn train_tables_mbpp(model: &SchemaLinker, bench: &Benchmark, n_train: usize) -> Mbpp {
        let ds = BranchDataset::build(model, &bench.split.train, LinkTarget::Tables, n_train);
        Mbpp::train(
            &ds,
            &MbppConfig {
                probe: ProbeConfig {
                    epochs: 6,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn context_path_matches_reference_path_for_all_policies() {
        let bench = BenchmarkProfile::bird_like().scaled(0.06).generate(64);
        let model = SchemaLinker::new("bird", 13);
        let mbpp = train_tables_mbpp(&model, &bench, 450);
        let surrogate = SurrogateModel::train(&bench, 3);
        let oracle = HumanOracle::new(Expertise::Expert, 5);
        let contexts = LinkContexts::build(&bench);
        let config = RtsConfig::default();
        let reference_path = Oracle {
            reference: true,
            ..Oracle::default()
        };
        let mut scratch = LinkScratch::default();
        for policy in [
            MitigationPolicy::AbstainOnly,
            MitigationPolicy::Surrogate(&surrogate),
            MitigationPolicy::Human(&oracle),
        ] {
            for inst in bench.split.dev.iter().take(60) {
                let meta = bench.meta(&inst.db_name).unwrap();
                let ctx = contexts.get(&inst.db_name, LinkTarget::Tables);
                let fast = run_rts_linking_in(
                    &model,
                    &mbpp,
                    inst,
                    meta,
                    ctx,
                    &policy,
                    &config,
                    &mut scratch,
                );
                let reference = run_rts_linking_monolithic(
                    &model,
                    &mbpp,
                    inst,
                    meta,
                    LinkTarget::Tables,
                    None,
                    None,
                    &policy,
                    &config,
                    reference_path,
                    &mut LinkScratch::default(),
                );
                assert_eq!(
                    format!("{fast:?}"),
                    format!("{reference:?}"),
                    "inst {}",
                    inst.id
                );
            }
        }
    }

    #[test]
    fn driven_session_matches_monolithic_loop_for_all_policies() {
        let bench = BenchmarkProfile::bird_like().scaled(0.04).generate(64);
        let model = SchemaLinker::new("bird", 13);
        let mbpp = train_tables_mbpp(&model, &bench, 350);
        let contexts = LinkContexts::build(&bench);
        let oracle = HumanOracle::new(Expertise::Expert, 5);
        let surrogate = SurrogateModel::train(&bench, 3);
        let config = RtsConfig::default();
        let mut scratch = LinkScratch::default();
        for policy in [
            MitigationPolicy::AbstainOnly,
            MitigationPolicy::Surrogate(&surrogate),
            MitigationPolicy::Human(&oracle),
        ] {
            for inst in bench.split.dev.iter().take(50) {
                let meta = bench.meta(&inst.db_name).unwrap();
                let ctx = contexts.get(&inst.db_name, LinkTarget::Tables);
                let mut session = LinkSession::new(
                    &model,
                    &mbpp,
                    inst,
                    meta,
                    LinkTarget::Tables,
                    Some(CtxHandle::Borrowed(ctx)),
                    None,
                    &config,
                );
                let stepped = drive_session(&mut session, &policy, &mut scratch);
                let monolithic = run_rts_linking_monolithic(
                    &model,
                    &mbpp,
                    inst,
                    meta,
                    LinkTarget::Tables,
                    Some(ctx),
                    None,
                    &policy,
                    &config,
                    Oracle::default(),
                    &mut scratch,
                );
                assert_eq!(
                    format!("{stepped:?}"),
                    format!("{monolithic:?}"),
                    "inst {}",
                    inst.id
                );
            }
        }
    }

    #[test]
    fn cached_trie_implicated_sets_match_clone_per_flag_reference() {
        // The shared-context implicated set must equal the
        // clone-per-flag reference element for element — across both
        // targets and every branch position of the stream.
        let bench = BenchmarkProfile::bird_like().scaled(0.02).generate(92);
        let model = SchemaLinker::new("bird", 24);
        let contexts = LinkContexts::build(&bench);
        let mut flagged = 0usize;
        for inst in bench.split.dev.iter() {
            let meta = bench.meta(&inst.db_name).unwrap();
            for target in [LinkTarget::Tables, LinkTarget::Columns] {
                let mut vocab = Vocab::new();
                let trace = model.generate(inst, &mut vocab, target, GenMode::Free);
                let ctx = contexts.get(&inst.db_name, target);
                for branch_pos in trace
                    .steps
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_branch)
                    .map(|(p, _)| p)
                {
                    let cached = ctx.implicated_elements(&vocab, &trace.tokens, branch_pos);
                    let reference = implicated_elements_reference(
                        &vocab,
                        meta,
                        target,
                        &trace.tokens,
                        branch_pos,
                    );
                    assert_eq!(
                        cached, reference,
                        "instance {} target {target:?} branch {branch_pos}",
                        inst.id
                    );
                    flagged += 1;
                }
            }
        }
        assert!(flagged > 20, "too few flagged positions: {flagged}");
    }

    #[test]
    fn incremental_matches_reference_on_generated_streams() {
        // Every (stream, branch position, truncation) the dev split can
        // produce: the single-pass trace back must agree with the
        // quadratic reference exactly, including the trie-completion
        // and eos corner cases.
        let bench = BenchmarkProfile::bird_like().scaled(0.02).generate(80);
        let model = SchemaLinker::new("bird", 23);
        let mut cases = 0usize;
        for inst in bench.split.dev.iter() {
            for target in [LinkTarget::Tables, LinkTarget::Columns] {
                let mut vocab = Vocab::new();
                let trace = model.generate(inst, &mut vocab, target, GenMode::Free);
                let meta = bench.meta(&inst.db_name).unwrap();
                let trie = match target {
                    LinkTarget::Tables => table_trie(&mut vocab, meta),
                    LinkTarget::Columns => column_trie(&mut vocab, meta),
                };
                for branch_pos in 0..trace.tokens.len() {
                    for cut in branch_pos + 1..=trace.tokens.len() {
                        let toks = &trace.tokens[..cut];
                        assert_eq!(
                            trace_back(&vocab, &trie, toks, branch_pos),
                            trace_back_reference(&vocab, &trie, toks, branch_pos),
                            "instance {} target {target:?} branch {branch_pos} cut {cut}",
                            inst.id
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases > 1000, "too few cases exercised: {cases}");
    }

    #[test]
    fn long_stream_traceback_is_single_pass() {
        // A long synthetic stream (hundreds of elements): the
        // incremental path must agree with the reference when the
        // branch sits at the front — exactly where the re-decode
        // formulation paid its quadratic worst case.
        let mut vocab = Vocab::new();
        let mut trie = Trie::new();
        let comma = vocab.intern(simlm::vocab::TOK_COMMA);
        let mut tokens: Vec<TokenId> = vec![
            vocab.intern(simlm::vocab::TOK_TABLES),
            vocab.intern(simlm::vocab::TOK_COLON),
        ];
        for i in 0..400 {
            let name = format!("tbl{i}Data");
            let ids = simlm::linearize::element_tokens(&mut vocab, &name);
            trie.insert(&name, &ids);
            if i > 0 {
                tokens.push(comma);
            }
            // Repeat the same element so nothing is ever "fresh" and the
            // loop must walk the whole stream.
            let ids0 = vocab.try_encode_identifier("tbl0Data").unwrap();
            tokens.extend(ids0);
        }
        tokens.push(vocab.intern(TOK_END));
        // Branch on the second element's first token: `pre` then already
        // contains "tbl0Data", so no later completion is ever fresh and
        // both paths must walk the stream to the eos fallback.
        let branch_pos = 5;
        let fast = trace_back(&vocab, &trie, &tokens, branch_pos);
        let slow = trace_back_reference(&vocab, &trie, &tokens, branch_pos);
        assert_eq!(fast, slow);
        assert_eq!(fast, vec!["tbl0Data".to_string()]);
    }

    #[test]
    fn batched_flags_match_per_token_exactly() {
        let bench = BenchmarkProfile::bird_like().scaled(0.03).generate(31);
        let model = SchemaLinker::new("bird", 5);
        let ds = BranchDataset::build(&model, &bench.split.train, LinkTarget::Tables, 250);
        for method in [
            MergeMethod::RandomPermutation,
            MergeMethod::MajorityVote { theta: 0.5 },
        ] {
            let cfg = MbppConfig {
                method,
                probe: ProbeConfig {
                    epochs: 8,
                    ..Default::default()
                },
                ..Default::default()
            };
            let mbpp = Mbpp::train(&ds, &cfg);
            let mut scratch = BppScratch::default();
            let mut rng_batched = SplitMix64::new(41);
            let mut rng_serial = SplitMix64::new(41);
            for inst in bench.split.dev.iter().take(25) {
                let mut vocab = Vocab::new();
                let trace = model.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free);
                let batched = mbpp.flag_trace_with_scratch(&trace, &mut rng_batched, &mut scratch);
                let serial = flag_trace_per_token(&mbpp, &trace, &mut rng_serial);
                assert_eq!(batched, serial, "flag divergence on instance {}", inst.id);
                // RNG streams must stay in lock-step too.
                assert_eq!(
                    rng_batched, rng_serial,
                    "rng divergence on instance {}",
                    inst.id
                );
            }
        }
    }
}

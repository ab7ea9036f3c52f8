//! The traced run's serial, uncontended replay of served requests
//! through each layer's public functions, one span per call.

use crate::setup::{same_outcome, Artefacts};
use crate::trace::SpanBuf;
use crate::workloads::Population;
use rts_core::abstention::{LinkScratch, MitigationPolicy};
use rts_core::context::LinkContext;
use rts_core::pipeline::JointOutcome;
use rts_core::session::{resolve_flag, Handle, LinkSession, SessionState};
use rts_serve::wire::{read_frame, write_frame, ClientMsg, ServerMsg, WireOutcome};
use simlm::{GenMode, LinkTarget, Vocab};
use std::time::Instant;

/// Which optional layers the replayed workload exercises.
#[derive(Debug, Clone, Copy)]
pub struct Layers {
    /// Checkpoint, decode and restore every feedback park, as the
    /// engine does under a 1-byte parked budget.
    pub checkpoint: bool,
    /// Encode and decode the request's wire frames.
    pub wire: bool,
}

/// What the replay produced besides its spans.
#[derive(Debug, Default)]
pub struct Replay {
    pub requests: usize,
    /// Uncontended service per request: session steps, resolves and
    /// checkpoint work, both link targets, in microseconds.
    pub service_us: Vec<f64>,
    pub rounds: usize,
    pub tokens: usize,
    pub checkpoint_bytes: Vec<f64>,
    pub wire_bytes: usize,
    pub wire_frames: usize,
    /// Replayed outcomes that differ from the batch reference.
    pub mismatches: usize,
}

/// Replay `requests` (population indices, in served order) serially.
pub fn replay(
    art: &Artefacts,
    pop: Population,
    requests: &[usize],
    layers: Layers,
    buf: &mut SpanBuf,
) -> Replay {
    let oracle = Artefacts::oracle();
    let policy = MitigationPolicy::Human(&oracle);
    let rts = art.rts_config();
    let mut scratch = LinkScratch::default();
    let mut out = Replay::default();
    for &idx in requests {
        let inst = &pop.instances[idx];
        let req = crate::trace::request_id();
        let root = buf.open();
        let t0 = Instant::now();
        let mut msgs = Vec::new();
        msgs.push(Msg::C(ClientMsg::Submit {
            req,
            tenant: 0,
            instance: inst.id,
        }));
        msgs.push(Msg::S(ServerMsg::Submitted { req }));
        let mut service = 0.0;
        let mut n_feedback = 0;
        let [tables, columns] = [LinkTarget::Tables, LinkTarget::Columns].map(|target| {
            let meta = art
                .bench
                .meta(&inst.db_name)
                .expect("instance database exists");
            let mbpp = art.mbpp(target);
            let ctx = buf.time(root, req, "context.build", || {
                LinkContext::new(meta, target)
            });
            // Round 0 through the generation and monitoring layers, and
            // Algorithm 2 on each flag it raises.
            let mut vocab = Vocab::new();
            let trace = buf.time(root, req, "simlm.generate", || {
                art.linker.generate_with_layers(
                    inst,
                    &mut vocab,
                    target,
                    GenMode::Free,
                    &mbpp.layer_set(),
                    &mut scratch.synth,
                )
            });
            out.tokens += trace.tokens.len();
            let mut rng = rts_core::par::instance_rng(rts.seed, inst.id);
            let flags = buf.time(root, req, "bpp.monitor", || {
                mbpp.flag_trace_with_scratch(&trace, &mut rng, &mut scratch.bpp)
            });
            for (pos, _) in flags
                .iter()
                .enumerate()
                .filter(|(pos, &f)| f && trace.steps[*pos].element_idx.is_some())
            {
                buf.time(root, req, "context.traceback", || {
                    ctx.implicated_elements(&vocab, &trace.tokens, pos)
                });
            }
            // The full session, as an engine worker runs it.
            let ctx_handle = || Some(Handle::Borrowed(&ctx));
            let mut session = LinkSession::new(
                &art.linker,
                mbpp,
                inst,
                meta,
                target,
                ctx_handle(),
                None,
                &rts,
            );
            loop {
                let (state, us) = timed(buf, root, req, "session.step", || {
                    session.step(&mut scratch)
                });
                service += us;
                out.rounds += 1;
                let query = match state {
                    SessionState::Done(outcome) => break outcome,
                    SessionState::NeedsFeedback(query) => query,
                };
                msgs.push(Msg::S(ServerMsg::NeedsFeedback {
                    req,
                    target,
                    query: query.clone(),
                }));
                if layers.checkpoint {
                    let cp = session.checkpoint();
                    let (bytes, us) = timed(buf, root, req, "checkpoint.encode", || {
                        rts_serve::checkpoint::encode(&cp)
                    });
                    service += us;
                    out.checkpoint_bytes.push(bytes.len() as f64);
                    let (decoded, us) = timed(buf, root, req, "checkpoint.decode", || {
                        rts_serve::checkpoint::try_decode(&bytes)
                    });
                    service += us;
                    let decoded = decoded.expect("a fresh checkpoint decodes");
                    drop(session);
                    let (restored, us) = timed(buf, root, req, "session.restore", || {
                        LinkSession::restore(
                            &art.linker,
                            mbpp,
                            inst,
                            meta,
                            target,
                            ctx_handle(),
                            &rts,
                            &decoded,
                            &mut scratch.synth,
                        )
                    });
                    service += us;
                    session = restored;
                }
                let resolution = buf.time(root, req, "feedback.answer", || {
                    resolve_flag(&policy, inst, &query)
                });
                n_feedback += 1;
                msgs.push(Msg::C(ClientMsg::Resolve {
                    req: req | 1 << 63,
                    ticket: req,
                    query,
                    resolution: resolution.clone(),
                }));
                msgs.push(Msg::S(ServerMsg::Resolved { req: req | 1 << 63 }));
                let ((), us) = timed(buf, root, req, "session.resolve", || {
                    session.resolve(resolution)
                });
                service += us;
            }
        });
        let joint = JointOutcome { tables, columns };
        if !same_outcome(&joint, &pop.reference[idx]) {
            out.mismatches += 1;
        }
        if layers.wire {
            msgs.push(Msg::S(ServerMsg::Done {
                req,
                outcome: WireOutcome {
                    outcome: joint,
                    shed: false,
                    timed_out: false,
                    faulted: false,
                    drained: false,
                    latency_us: (service as u64).max(1),
                    n_feedback,
                },
            }));
            for msg in &msgs {
                out.wire_bytes += wire_roundtrip(msg, root, req, buf);
            }
            out.wire_frames += msgs.len();
        }
        buf.close(root, 0, req, "replay.request", t0, Instant::now());
        out.service_us.push(service);
        out.requests += 1;
    }
    out
}

/// Run `f` as a leaf span and also return its duration in microseconds.
fn timed<T>(
    buf: &mut SpanBuf,
    parent: u64,
    req: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    buf.leaf(parent, req, name, start, end);
    (out, (end - start).as_secs_f64() * 1e6)
}

/// A frame in either direction.
enum Msg {
    C(ClientMsg),
    S(ServerMsg),
}

/// Frame `msg` and read it back; returns the frame's bytes.
fn wire_roundtrip(msg: &Msg, root: u64, req: u64, buf: &mut SpanBuf) -> usize {
    let mut bytes = Vec::new();
    let written = buf.time(root, req, "wire.encode", || match msg {
        Msg::C(m) => write_frame(&mut bytes, m),
        Msg::S(m) => write_frame(&mut bytes, m),
    });
    written.expect("frames of served messages fit the wire");
    let mut cursor = std::io::Cursor::new(&bytes);
    let ok = buf.time(root, req, "wire.decode", || match msg {
        Msg::C(_) => matches!(read_frame::<_, ClientMsg>(&mut cursor), Ok(Some(_))),
        Msg::S(_) => matches!(read_frame::<_, ServerMsg>(&mut cursor), Ok(Some(_))),
    });
    assert!(ok, "a written frame reads back");
    bytes.len()
}

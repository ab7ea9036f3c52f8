//! Serving over TCP: the `serving_quickstart` workload with a real
//! socket in the middle — an `rts-served` wire server in one thread,
//! an `rts-client` in another, and the same `Engine` trait on both
//! sides.
//!
//! ```text
//! cargo run --release --example serving_over_tcp
//! ```
//!
//! What changes versus `serving_quickstart`: the client holds a
//! [`rts::client::RtsClient`] instead of the engine itself, the
//! handshake checks a corpus fingerprint so both processes provably
//! mean the same instances by their ids, and a dropped connection
//! parks the session server-side — reconnecting resumes it by session
//! id with the unanswered feedback query re-delivered verbatim. What
//! does *not* change: the answers. The wire moves outcomes; it never
//! edits them.

use rts::benchgen::BenchmarkProfile;
use rts::client::RtsClient;
use rts::core::abstention::{MitigationPolicy, RtsConfig};
use rts::core::bpp::{Mbpp, MbppConfig};
use rts::core::branching::BranchDataset;
use rts::core::human::{Expertise, HumanOracle};
use rts::core::session::resolve_flag;
use rts::serve::{ClientEvent, Engine, ServeConfig, ShardedEngine};
use rts::served::Server;
use rts::simlm::{LinkTarget, SchemaLinker};
use std::net::TcpListener;
use std::sync::Arc;

fn main() {
    // 1. The same tiny BIRD-shaped workload and artefacts as
    //    `serving_quickstart`.
    let bench = BenchmarkProfile::bird_like().scaled(0.02).generate(42);
    let linker = SchemaLinker::new("bird", 7);
    let ds_t = BranchDataset::build(&linker, &bench.split.train, LinkTarget::Tables, 150);
    let ds_c = BranchDataset::build(&linker, &bench.split.train, LinkTarget::Columns, 150);
    let mbpp_t = Mbpp::train(&ds_t, &MbppConfig::default());
    let mbpp_c = Mbpp::train(&ds_c, &MbppConfig::default());

    // 2. The engine goes behind a wire server instead of into the
    //    client's hands. The fingerprint is the corpus contract: a
    //    client built from a different seed or scale is refused at
    //    the handshake, not served wrong answers.
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 4,
        rts: RtsConfig::default(),
        ..ServeConfig::default()
    };
    let engine = Arc::new(ShardedEngine::new(
        &linker,
        &mbpp_t,
        &mbpp_c,
        &bench.metas,
        1,
        config,
    ));
    let fingerprint = rts::serve::wire::corpus_fingerprint("bird", 0.02, 42, linker.corpus());
    let server = Server::new(
        Arc::clone(&engine),
        fingerprint.clone(),
        bench.split.dev.iter().cloned(),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("loopback addr").to_string();

    let mut threads = Vec::new();
    for i in 0..engine.workers_total() {
        let engine = Arc::clone(&engine);
        threads.push(std::thread::spawn(move || engine.worker_loop(i)));
    }
    {
        let server = server.clone();
        threads.push(std::thread::spawn(move || {
            server.serve(listener).expect("serve drains cleanly");
        }));
    }
    println!("rts-served listening on {addr} (fingerprint {fingerprint})");

    // 3. The client dials in, proves it means the same corpus, and
    //    from here on is just another `Engine` — the closed loop below
    //    is byte-for-byte the one `serving_quickstart` runs in-process.
    let client = RtsClient::connect(&addr, Some(&fingerprint)).expect("handshake");
    println!(
        "connected as session {}",
        client.session_id().expect("session granted")
    );

    let oracle = HumanOracle::new(Expertise::Expert, 1);
    let policy = MitigationPolicy::Human(&oracle);
    let instances: Vec<&rts::benchgen::Instance> = bench.split.dev.iter().take(12).collect();

    let mut suspensions = 0usize;
    let mut dropped_once = false;
    for inst in &instances {
        let ticket = client.submit(0, inst).expect("queue has room");
        loop {
            match client.wait_event(ticket) {
                ClientEvent::NeedsFeedback { target, query } => {
                    suspensions += 1;
                    if !dropped_once {
                        // 4. The wire's party trick: kill the TCP
                        //    connection mid-feedback. The server parks
                        //    the session; the next wait redials with
                        //    `resume` and the very same query comes
                        //    back under the same ticket.
                        dropped_once = true;
                        println!(
                            "ticket {ticket}: suspended on a {target:?} flag — \
                             dropping the connection mid-feedback"
                        );
                        client.drop_connection();
                        continue;
                    }
                    let resolution = resolve_flag(&policy, inst, &query);
                    // The wire re-delivers at least once around a
                    // reconnect, so an already-answered flag can
                    // resurface; its verdict reads `Stale`/`Retired`
                    // and is safely ignored — the loop just polls on.
                    let _ = client.resolve(ticket, &query, resolution);
                }
                ClientEvent::Done(done) => {
                    if done.n_feedback > 0 {
                        println!(
                            "ticket {ticket}: done — tables {:?} / columns {:?} \
                             after {} feedback round(s)",
                            done.outcome.tables.predicted,
                            done.outcome.columns.predicted,
                            done.n_feedback,
                        );
                    }
                    break;
                }
                ClientEvent::Retired => {
                    unreachable!("ticket {ticket} retired while its client still waits")
                }
            }
        }
    }

    // 5. Stats round-trip over the wire; then a graceful drain: the
    //    server stops accepting, finishes what it has, and its serve
    //    loop returns.
    let stats = client.stats();
    println!(
        "served {} requests ({suspensions} suspensions, 1 reconnect); \
         latency p50/p95: {:.2}/{:.2} ms, cache hit rate {:.0}%",
        instances.len(),
        stats.latency.p50_ms,
        stats.latency.p95_ms,
        stats.cache.hit_rate() * 100.0,
    );
    assert_eq!(stats.completed, instances.len() as u64);

    client.shutdown();
    client.bye();
    for t in threads {
        t.join().expect("server thread panicked");
    }
    println!("server drained; bye");
}

//! The repository benchmark: served schema linking under hot, churning
//! and wire traffic, checked request by request against the batch
//! runtime. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload closed-hot --seed 1 --seconds 24 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the run is
//! repeated with spans on, the served requests are replayed through
//! each layer, and the metrics are the per-layer ones.

mod replay;
mod schedule;
mod setup;
mod stats;
mod trace;
mod workloads;

use benchgen::Instance;
use stats::{percentile, PhaseSummary};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Population, Run, Verdict, Workload};

/// Medians of p50/p99/throughput are taken over at most this many
/// equal-count windows of a phase.
const MAX_WINDOWS: usize = 1000;
/// Served requests the traced run replays through the layers.
const REPLAY_REQUESTS: usize = 1500;
/// Spans written to the spans file (the newest ones); the span table
/// covers all of them.
const MAX_WRITTEN_SPANS: usize = 200_000;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let name = workload.ok_or("--workload is required")?;
    let workloads = if name == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?]
    };
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <closed-hot|closed-churn|wire-closed|all> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let single = args.workloads.len() == 1;
    let mut total = Outcome::default();
    for &w in &args.workloads {
        let out = match run_workload(w, &args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let prefix = if single {
            String::new()
        } else {
            format!("{}.", w.name())
        };
        total.absorb(out, &prefix);
    }
    println!("{}", total.json());
    if total.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A metric as printed: value and unit.
type Metric = (String, f64, &'static str);

#[derive(Default)]
struct Outcome {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn absorb(&mut self, other: Outcome, prefix: &str) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.metrics.extend(
            other
                .metrics
                .into_iter()
                .map(|(n, v, u)| (format!("{prefix}{n}"), v, u)),
        );
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
            );
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{m}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

fn run_workload(w: Workload, args: &Args) -> Result<Outcome, String> {
    let out = measure(w, args)?;
    match out.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        Some((name, value, _)) => Err(format!("metric {name} is {value}")),
        None => Ok(out),
    }
}

fn measure(w: Workload, args: &Args) -> Result<Outcome, String> {
    let nproc = setup::nproc();
    let calib_us = setup::calibrate();
    eprintln!(
        "[perfbench] {} seed {} seconds {} trace {} | host: nproc {nproc}, calibration {calib_us:.1} us",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let (art, setup_s) = setup::timed_setup();
    let instances = w.population(&art);
    let t0 = Instant::now();
    let reference = art.reference(&instances);
    eprintln!(
        "[perfbench] setup {setup_s:.3} s (median of {}); batch reference for {} instances in {:.2} s",
        setup::SETUP_REPEATS,
        instances.len(),
        t0.elapsed().as_secs_f64()
    );
    let pop = Population {
        instances: &instances,
        reference: &reference,
    };
    setup::trim_heap();
    let origin = Instant::now();
    let ticks = setup::cpu_ticks();
    let plain = workloads::run(w, &art, pop, args.seed, args.seconds, false, origin);
    let steal = setup::steal_share(&ticks, &setup::cpu_ticks());
    let mut out = Outcome::default();
    let checked = check(w, &plain, pop.instances, &mut out);
    let e2e = end_to_end(&plain, &checked, setup_s)?;
    let host = Host {
        nproc,
        calib_us,
        steal,
    };
    print_report(w, args, &host, &plain, &checked, &e2e);
    if !args.trace {
        out.metrics = e2e.metrics;
        write_record(w, args, &host, &out, &[])?;
        return Ok(out);
    }

    let ticks = setup::cpu_ticks();
    let traced = workloads::run(w, &art, pop, args.seed, args.seconds, true, origin);
    let host = Host {
        steal: setup::steal_share(&ticks, &setup::cpu_ticks()),
        ..host
    };
    eprintln!("[perfbench] traced run: steal {:.2}%", host.steal * 100.0);
    let traced_checked = check(w, &traced, pop.instances, &mut out);
    let traced_e2e = end_to_end(&traced, &traced_checked, setup_s)?;
    let mut spans: Vec<trace::Span> = traced
        .phases()
        .into_iter()
        .flat_map(|p| p.spans.iter().copied())
        .collect();
    let replayed: Vec<usize> = traced
        .timed
        .done
        .iter()
        .take(REPLAY_REQUESTS)
        .map(|d| d.inst)
        .collect();
    let mut buf = trace::SpanBuf::new(origin, true);
    let layers = replay::Layers {
        checkpoint: w.churns(),
        wire: w == Workload::WireClosed,
    };
    let rep = replay::replay(&art, pop, &replayed, layers, &mut buf);
    if rep.mismatches > 0 {
        out.problems.push(format!(
            "{} replayed outcomes differ from the batch reference",
            rep.mismatches
        ));
    }
    spans.extend(buf.spans);
    let overhead_ms = if w == Workload::WireClosed {
        // The same traffic in-process, for half the run: the base the
        // wire's price is measured against.
        let closed = Workload::ClosedHot;
        let inproc = workloads::run(
            closed,
            &art,
            pop,
            args.seed,
            args.seconds / 2.0,
            false,
            origin,
        );
        let inproc_checked = check(closed, &inproc, pop.instances, &mut out);
        let base = end_to_end(&inproc, &inproc_checked, setup_s)?;
        e2e.summary.p50_ms - base.summary.p50_ms
    } else {
        0.0
    };
    let layer = per_layer(
        &traced,
        &traced_checked,
        &rep,
        &spans,
        &e2e,
        &traced_e2e,
        overhead_ms,
    )?;
    let rows = trace::table(&spans);
    print_layers(&rows, &layer);
    out.metrics = layer;
    // The replay's spans come last; keep them whole and as many of the
    // client spans as fit the cap.
    let keep = &spans[spans.len().saturating_sub(MAX_WRITTEN_SPANS)..];
    let spans_path = out_dir()?.join(format!("{}-spans.jsonl", w.name()));
    trace::write_jsonl(&spans_path, keep)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    eprintln!(
        "[perfbench] {} of {} spans written to {}",
        keep.len(),
        spans.len(),
        spans_path.display()
    );
    write_record(w, args, &host, &out, &rows)?;
    Ok(out)
}

/// Successful requests of the timed phase, after the correctness
/// check.
struct Checked<'a> {
    ok: Vec<&'a workloads::Done>,
}

/// Compare every served request with the batch reference and check the
/// engine drained. Failures are counted into `out`.
fn check<'a>(w: Workload, run: &'a Run, instances: &[Instance], out: &mut Outcome) -> Checked<'a> {
    let known = out.problems.len();
    let mut ok = Vec::new();
    for phase in run.phases() {
        let mut good = Vec::with_capacity(phase.done.len());
        let (mut degraded, mut mismatched) = (0, 0);
        for d in &phase.done {
            match d.verdict {
                Verdict::Ok => good.push(d),
                Verdict::Degraded => degraded += 1,
                Verdict::Mismatch => {
                    mismatched += 1;
                    if mismatched == 1 {
                        eprintln!(
                            "[perfbench] instance {} differs from the batch reference",
                            instances[d.inst].id
                        );
                    }
                }
            }
        }
        let dropped = phase.attempted - phase.done.len();
        let failed = dropped + degraded + mismatched;
        if failed > 0 {
            out.problems.push(format!(
                "{} {}: {dropped} dropped, {degraded} degraded, {mismatched} differ from the batch reference",
                w.name(),
                phase.label
            ));
        }
        out.attempted += phase.attempted;
        out.failed += failed;
        if phase.label != "warm" {
            ok = good;
        }
    }
    let s = &run.stats;
    for (gauge, value) in [
        ("parked_sessions_now", s.parked_sessions_now),
        ("parked_bytes_now", s.parked_bytes_now),
        ("checkpoint_bytes_now", s.checkpoint_bytes_now),
    ] {
        if value != 0 {
            out.problems
                .push(format!("gauge {gauge} is {value} after the drain"));
        }
    }
    if s.invariant_breaches != 0 {
        out.problems.push(format!(
            "{} engine invariant breaches",
            s.invariant_breaches
        ));
    }
    let checkpointed = s.checkpoints > 0 && s.restores > 0;
    if checkpointed != w.churns() {
        out.problems.push(format!(
            "{} checkpoints / {} restores where the workload expects {}",
            s.checkpoints,
            s.restores,
            if w.churns() {
                "every park checkpointed"
            } else {
                "none"
            }
        ));
    }
    for p in &out.problems[known..] {
        eprintln!("[perfbench] FAILED: {p}");
    }
    Checked { ok }
}

/// End-to-end figures of one run's timed phase.
struct EndToEnd {
    summary: PhaseSummary,
    metrics: Vec<Metric>,
}

fn end_to_end(run: &Run, checked: &Checked, setup_s: f64) -> Result<EndToEnd, String> {
    let served = &checked.ok;
    let samples: Vec<stats::Sample> = served.iter().map(|d| d.sample).collect();
    let summary = stats::summarise(&samples, MAX_WINDOWS)?;
    let n = served.len().max(1) as f64;
    let em = served.iter().filter(|d| d.exact).count() as f64 / n;
    let feedback = served.iter().map(|d| d.n_feedback as f64).sum::<f64>() / n;
    let metrics = vec![
        ("setup_s".into(), setup_s, "s"),
        ("throughput_rps".into(), summary.rps, "1/s"),
        ("p50_ms".into(), summary.p50_ms, "ms"),
        (
            "ok_share".into(),
            served.len() as f64 / run.timed.attempted.max(1) as f64,
            "share",
        ),
        ("linking_em".into(), em, "share"),
        ("feedback_per_req".into(), feedback, "count"),
        ("rss_mb".into(), run.timed.rss_peak_mb, "MiB"),
    ];
    Ok(EndToEnd { summary, metrics })
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    run: &Run,
    checked: &Checked,
    rep: &replay::Replay,
    spans: &[trace::Span],
    plain: &EndToEnd,
    traced: &EndToEnd,
    wire_overhead_ms: f64,
) -> Result<Vec<Metric>, String> {
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    };
    // Per-request sums of one span name in the replay.
    let per_request = |name: &str| -> Vec<f64> {
        let mut sums = std::collections::BTreeMap::<u64, f64>::new();
        for s in spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.req).or_default() += s.dur_ns() as f64 / 1e3;
        }
        sums.into_values().collect()
    };
    let med = |v: Vec<f64>| stats::median(&v);
    let reqs = rep.requests.max(1) as f64;
    let served = &checked.ok;
    let n_served = served.len().max(1) as f64;
    let flags = served.iter().map(|d| d.n_flags as f64).sum::<f64>() / n_served;
    let mut service = rep.service_us.clone();
    service.sort_by(f64::total_cmp);
    let service_p50 = percentile(&service, 0.50).ok_or("replay too small for a service p50")?;
    let service_p99 =
        percentile(&service, 0.99).ok_or("replay too small for an honest service p99")?;
    let s = &run.stats;
    let completed = s.completed.max(1) as f64;
    let bounces = run.timed.bounces;
    let shard_mean =
        run.shard_completed.iter().sum::<u64>() as f64 / run.shard_completed.len().max(1) as f64;
    let shard_max = run.shard_completed.iter().copied().max().unwrap_or(0) as f64;
    let checkpoint_us = |name: &str| med(durations(name));
    let wire = rep.wire_frames > 0;
    Ok(vec![
        (
            "simlm.trace_gen_us".into(),
            med(per_request("simlm.generate")),
            "us",
        ),
        (
            "simlm.tokens_per_req".into(),
            rep.tokens as f64 / reqs,
            "count",
        ),
        (
            "bpp.monitor_us".into(),
            med(per_request("bpp.monitor")),
            "us",
        ),
        ("bpp.flags_per_req".into(), flags, "count"),
        (
            "context.build_us".into(),
            med(durations("context.build")),
            "us",
        ),
        (
            "context.traceback_us".into(),
            med(durations("context.traceback")),
            "us",
        ),
        ("context.hit_rate".into(), s.cache.hit_rate(), "share"),
        (
            "context.evictions".into(),
            s.cache.evictions as f64,
            "count",
        ),
        (
            "context.invalidations".into(),
            s.db_invalidations as f64,
            "count",
        ),
        ("session.service_p50_us".into(), service_p50, "us"),
        ("session.service_p99_us".into(), service_p99, "us"),
        (
            "session.rounds_per_req".into(),
            rep.rounds as f64 / reqs,
            "count",
        ),
        (
            "engine.submit_us".into(),
            med(durations("engine.submit")),
            "us",
        ),
        (
            "engine.wait_share".into(),
            (1.0 - service_p50 / 1e3 / plain.summary.p50_ms).max(0.0),
            "share",
        ),
        (
            "engine.queue_depth_mean".into(),
            s.queue_depth_mean,
            "count",
        ),
        (
            "engine.bounces_per_req".into(),
            bounces as f64 / completed,
            "count",
        ),
        (
            "shard.steals_per_req".into(),
            run.steals as f64 / completed,
            "count",
        ),
        (
            "shard.imbalance".into(),
            if shard_mean > 0.0 {
                shard_max / shard_mean
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "checkpoint.encode_us".into(),
            checkpoint_us("checkpoint.encode"),
            "us",
        ),
        (
            "checkpoint.decode_us".into(),
            checkpoint_us("checkpoint.decode"),
            "us",
        ),
        (
            "checkpoint.restore_us".into(),
            checkpoint_us("session.restore"),
            "us",
        ),
        (
            "checkpoint.bytes".into(),
            stats::mean(&rep.checkpoint_bytes),
            "bytes",
        ),
        (
            "wire.encode_us".into(),
            med(per_request("wire.encode")),
            "us",
        ),
        (
            "wire.decode_us".into(),
            med(per_request("wire.decode")),
            "us",
        ),
        (
            "wire.bytes_per_req".into(),
            if wire {
                rep.wire_bytes as f64 / reqs
            } else {
                0.0
            },
            "bytes",
        ),
        (
            "wire.frames_per_req".into(),
            if wire {
                rep.wire_frames as f64 / reqs
            } else {
                0.0
            },
            "count",
        ),
        ("wire.overhead_ms".into(), wire_overhead_ms, "ms"),
        (
            "gen.answer_us".into(),
            med(durations("feedback.answer")),
            "us",
        ),
        (
            "trace.overhead_p50_ms".into(),
            traced.summary.p50_ms - plain.summary.p50_ms,
            "ms",
        ),
        (
            "trace.overhead_rps".into(),
            plain.summary.rps - traced.summary.rps,
            "1/s",
        ),
    ])
}

/// Host datum recorded next to every run: reported, never gated on.
#[derive(Clone, Copy)]
struct Host {
    nproc: usize,
    calib_us: f64,
    /// Share of CPU time stolen by the hypervisor during the run.
    steal: f64,
}

fn print_report(
    w: Workload,
    args: &Args,
    host: &Host,
    run: &Run,
    checked: &Checked,
    e2e: &EndToEnd,
) {
    println!(
        "== {} | seed {} | {} s | nproc {} | calibration {:.1} us | steal {:.2}%",
        w.name(),
        args.seed,
        args.seconds,
        host.nproc,
        host.calib_us,
        host.steal * 100.0
    );
    println!(
        "{:<6} {:<10} {:>9} {:>9} {:>6} {:>10} {:>10} {:>12}",
        "phase", "load", "attempted", "succeeded", "failed", "p50_ms", "p99_ms", "windows"
    );
    let (phase, sum, ok) = (&run.timed, &e2e.summary, checked.ok.len());
    println!(
        "{:<6} {:<10} {:>9} {:>9} {:>6} {:>10.3} {:>10.3} {:>4} x {:>5}",
        phase.label,
        format!("{} clients", workloads::CLIENTS),
        phase.attempted,
        ok,
        phase.attempted - ok,
        sum.p50_ms,
        sum.p99_ms,
        sum.windows,
        sum.n / sum.windows
    );
    println!("p99 is the median over windows of at least 1000 samples each (>= 10 beyond p99 per window).");
    println!(
        "rss_mb is the peak over the first {} completions.",
        phase.rss_completions
    );
    for (name, value, unit) in &e2e.metrics {
        println!("  {name:<22} {value:>14.4} {unit}");
    }
    let s = &run.stats;
    println!(
        "  engine: completed {} | cache hits {} misses {} evictions {} | invalidations {} | checkpoints {} restores {} | steals {}",
        s.completed, s.cache.hits, s.cache.misses, s.cache.evictions, s.db_invalidations, s.checkpoints, s.restores, run.steals
    );
}

fn print_layers(rows: &[trace::SpanRow], layer: &[Metric]) {
    println!(
        "{:<22} {:>9} {:>14} {:>14} {:>12}",
        "span", "count", "total_us", "self_us", "median_us"
    );
    for r in rows {
        println!(
            "{:<22} {:>9} {:>14.1} {:>14.1} {:>12.2}",
            r.name, r.count, r.total_us, r.self_us, r.median_us
        );
    }
    for (name, value, unit) in layer {
        println!("  {name:<26} {value:>14.4} {unit}");
    }
}

fn out_dir() -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Write the run's record — seed, host datum, counts, metrics and the
/// span table — next to the benchmark.
fn write_record(
    w: Workload,
    args: &Args,
    host: &Host,
    out: &Outcome,
    rows: &[trace::SpanRow],
) -> Result<(), String> {
    let mut rows_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            rows_json,
            r#"{sep}{{"name": "{}", "count": {}, "total_us": {}, "self_us": {}, "median_us": {}}}"#,
            r.name, r.count, r.total_us, r.self_us, r.median_us
        );
    }
    let problems: Vec<String> = out.problems.iter().map(|p| format!("{p:?}")).collect();
    let body = format!(
        r#"{{"workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "nproc": {}, "calibration_us": {}, "steal_share": {}, "problems": [{}], "result": {}, "spans": [{rows_json}]}}"#,
        w.name(),
        args.seed,
        args.seconds,
        args.trace,
        host.nproc,
        host.calib_us,
        host.steal,
        problems.join(", "),
        out.json()
    );
    let path = out_dir()?.join(format!("{}-trace{}.json", w.name(), args.trace as u8));
    std::fs::write(&path, body + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

//! Fixture tests: each pass runs over a known-bad and a waived
//! example, asserting exact finding counts, kinds, spans, and waiver
//! handling — and that stripping any waiver turns the run red.

use rts_analysis::{analyze, FileSpec, PassSet, Report};

const PANIC: PassSet = PassSet {
    panic: true,
    determinism: false,
    corpus: false,
    locks: false,
    std_sync: false,
    unsafety: false,
};
const DETERMINISM: PassSet = PassSet {
    panic: false,
    determinism: true,
    corpus: false,
    locks: false,
    std_sync: false,
    unsafety: false,
};
const CORPUS: PassSet = PassSet {
    panic: false,
    determinism: false,
    corpus: true,
    locks: false,
    std_sync: false,
    unsafety: false,
};
const LOCKS: PassSet = PassSet {
    panic: false,
    determinism: false,
    corpus: false,
    locks: true,
    std_sync: false,
    unsafety: false,
};
const SHIM: PassSet = PassSet {
    panic: false,
    determinism: false,
    corpus: false,
    locks: false,
    std_sync: true,
    unsafety: true,
};

fn run(name: &str, src: &str, passes: PassSet) -> Report {
    analyze(&[FileSpec {
        label: name.to_string(),
        src: src.to_string(),
        passes,
    }])
}

/// (kind, line) pairs of all findings, in report order.
fn spans(r: &Report) -> Vec<(&str, u32)> {
    r.findings.iter().map(|f| (f.kind, f.line)).collect()
}

/// Disable every `rts-allow` annotation in a source text without
/// moving any line numbers.
fn strip_waivers(src: &str) -> String {
    src.replace("rts-allow(", "rts-off(")
}

#[test]
fn panic_bad_finds_every_kind_at_exact_spans() {
    let r = run("panic_bad.rs", include_str!("fixtures/panic_bad.rs"), PANIC);
    assert_eq!(
        spans(&r),
        vec![
            ("unwrap", 4),
            ("expect", 5),
            ("panic-macro", 7),
            ("panic-macro", 10),
            ("panic-macro", 11),
            ("slice-index", 14),
        ]
    );
    assert_eq!(r.unwaived_count(), 6, "cfg(test) unwraps must not leak in");
    assert_eq!(r.exit_code(), 1);
}

#[test]
fn panic_waivers_cover_trailing_and_preceding_placement() {
    let src = include_str!("fixtures/panic_waived.rs");
    let r = run("panic_waived.rs", src, PANIC);
    assert_eq!(r.findings.len(), 4);
    assert_eq!(r.waived_count(), 3);
    assert_eq!(r.unwaived_count(), 1, "empty-reason waiver must not waive");
    let red: Vec<_> = r.unwaived().collect();
    assert_eq!(red[0].line, 16);
    assert!(
        red[0].message.contains("missing its reason"),
        "the report must say why the annotation did not count: {}",
        red[0].message
    );
    // Deleting the waivers turns every finding red.
    let stripped = run("panic_waived.rs", &strip_waivers(src), PANIC);
    assert_eq!(stripped.unwaived_count(), 4);
    assert_eq!(stripped.exit_code(), 1);
}

#[test]
fn determinism_bad_flags_clock_and_hash_iteration() {
    let r = run(
        "determinism_bad.rs",
        include_str!("fixtures/determinism_bad.rs"),
        DETERMINISM,
    );
    assert_eq!(
        spans(&r),
        vec![
            ("clock", 10),
            ("clock", 11),
            ("hash-iter", 12),
            ("hash-iter", 13),
            ("hash-iter", 17),
        ]
    );
    assert_eq!(r.unwaived_count(), 5);
}

#[test]
fn determinism_waivers_are_key_checked() {
    let src = include_str!("fixtures/determinism_waived.rs");
    let r = run("determinism_waived.rs", src, DETERMINISM);
    assert_eq!(r.findings.len(), 3);
    assert_eq!(r.waived_count(), 2);
    let red: Vec<_> = r.unwaived().collect();
    assert_eq!(
        (red[0].kind, red[0].line),
        ("clock", 19),
        "an iter-order waiver must not cover a clock finding"
    );
    let stripped = run("determinism_waived.rs", &strip_waivers(src), DETERMINISM);
    assert_eq!(stripped.unwaived_count(), 3);
}

#[test]
fn corpus_bad_flags_only_sequential_sampling() {
    let r = run(
        "corpus_bad.rs",
        include_str!("fixtures/corpus_bad.rs"),
        CORPUS,
    );
    // fill_gaussian and next_gaussian_pair are clean; only
    // the two lone next_gaussian() calls trip the pass.
    assert_eq!(
        spans(&r),
        vec![("sequential-sampler", 8), ("sequential-sampler", 9)]
    );
    assert_eq!(r.unwaived_count(), 2);
    assert_eq!(r.exit_code(), 1);
}

#[test]
fn corpus_waivers_are_key_checked() {
    let src = include_str!("fixtures/corpus_waived.rs");
    let r = run("corpus_waived.rs", src, CORPUS);
    assert_eq!(r.findings.len(), 3);
    assert_eq!(r.waived_count(), 2, "above-line and trailing placements");
    let red: Vec<_> = r.unwaived().collect();
    assert_eq!(
        (red[0].kind, red[0].line),
        ("sequential-sampler", 15),
        "an iter-order waiver must not cover a corpus finding"
    );
    let stripped = run("corpus_waived.rs", &strip_waivers(src), CORPUS);
    assert_eq!(stripped.unwaived_count(), 3);
    assert_eq!(stripped.exit_code(), 1);
}

#[test]
fn lock_pass_finds_cycle_wait_and_relock() {
    let r = run("locks_bad.rs", include_str!("fixtures/locks_bad.rs"), LOCKS);
    let mut kinds: Vec<&str> = r.findings.iter().map(|f| f.kind).collect();
    kinds.sort_unstable();
    assert_eq!(
        kinds,
        vec![
            "lock-cycle",
            "lock-cycle",
            "lock-cycle",
            "lock-relock",
            "wait-holds-other-lock",
        ]
    );
    let wait = r
        .findings
        .iter()
        .find(|f| f.kind == "wait-holds-other-lock")
        .unwrap();
    assert_eq!(wait.line, 25);
    assert!(wait.message.contains('b') && wait.message.contains('a'));
    let relock = r.findings.iter().find(|f| f.kind == "lock-relock").unwrap();
    assert_eq!(relock.line, 30);
    // The statement-scoped chained locks contribute no edges: every
    // cycle finding sits on the held-guard lines.
    for f in r.findings.iter().filter(|f| f.kind == "lock-cycle") {
        assert!(
            [13, 19, 24].contains(&f.line),
            "unexpected edge at {}",
            f.line
        );
    }
}

#[test]
fn waiving_the_closing_edge_breaks_the_cycle() {
    let src = include_str!("fixtures/locks_waived.rs");
    let r = run("locks_waived.rs", src, LOCKS);
    assert_eq!(r.findings.len(), 0, "waived edge leaves an acyclic graph");
    assert_eq!(r.exit_code(), 0);
    let stripped = run("locks_waived.rs", &strip_waivers(src), LOCKS);
    assert_eq!(stripped.unwaived_count(), 2, "both edges now close a cycle");
    assert_eq!(stripped.exit_code(), 1);
}

#[test]
fn shim_pass_flags_std_sync_and_uncommented_unsafe() {
    let r = run("shim_bad.rs", include_str!("fixtures/shim_bad.rs"), SHIM);
    assert_eq!(
        spans(&r),
        vec![("std-sync", 4), ("std-sync", 4), ("unsafe-no-safety", 12),]
    );
    assert_eq!(r.unwaived_count(), 3);
}

#[test]
fn shim_waivers_and_safety_comments_start_green() {
    let src = include_str!("fixtures/shim_waived.rs");
    let r = run("shim_waived.rs", src, SHIM);
    assert_eq!(r.findings.len(), 1);
    assert_eq!(r.waived_count(), 1);
    assert_eq!(r.exit_code(), 0);
    // Stripping the std-sync waiver and the SAFETY comment reddens
    // both sites.
    let broken = src
        .replace("rts-allow(", "rts-off(")
        .replace("SAFETY:", "safety note");
    let stripped = run("shim_waived.rs", &broken, SHIM);
    assert_eq!(stripped.unwaived_count(), 2);
    assert_eq!(stripped.exit_code(), 1);
}

#[test]
fn json_report_round_trips_counts() {
    let r = run("panic_bad.rs", include_str!("fixtures/panic_bad.rs"), PANIC);
    let json = r.json();
    assert!(json.contains("\"total\": 6"));
    assert!(json.contains("\"unwaived\": 6"));
    assert!(json.contains("\"kind\": \"slice-index\""));
    assert!(json.contains("\"file\": \"panic_bad.rs\""));
}

//! Seeded mutation fuzzing of `wire::read_frame`. Valid frames are
//! truncated, bit-flipped and re-prefixed; every case must come back as
//! `Ok` or a typed `WireError` — never a panic, and never an
//! allocation larger than `MAX_FRAME`, whatever the length prefix
//! claims.
//!
//! This file is its own test binary with a single test, so the
//! peak-allocation tracker below sees only the fuzz loop.

use proptest::prelude::*;
use rts_core::session::{FlagQuery, FlagResolution};
use rts_serve::wire::{encode_frame, read_frame, ClientMsg, ServerMsg, WireError, MAX_FRAME};
use rts_serve::EngineError;
use simlm::LinkTarget;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufReader, Cursor, Read};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single request. The
/// default `alloc_zeroed` and `realloc` route through `alloc`, so
/// every way a buffer can grow is seen.
struct PeakAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards the caller's layout contract to the
// system allocator unchanged; the tracker only reads `layout.size()`.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// A string drawn from a palette of plain runs, escapes and
/// multi-byte characters — the bytes the JSON string parser must scan.
fn text(rng: &mut TestRng) -> String {
    const PIECES: [&str; 8] = ["t_orders", "é", "\"", "\\", "\n", "表", "col_7", "\u{1}"];
    (0..rng.below(6))
        .map(|_| PIECES[rng.below(PIECES.len())])
        .collect()
}

fn query(rng: &mut TestRng) -> FlagQuery {
    FlagQuery {
        instance: rng.next_u64(),
        is_table: rng.next_bool(),
        round: rng.below(4),
        branch_pos: rng.below(64),
        element_idx: rng.below(8),
        gold_element: text(rng),
        implicated: (0..rng.below(4)).map(|_| text(rng)).collect(),
        predicted: (0..rng.below(4)).map(|_| text(rng)).collect(),
    }
}

/// One valid frame of a randomly chosen message, either direction.
fn valid_frame(rng: &mut TestRng) -> Vec<u8> {
    let mut buf = Vec::new();
    let req = rng.next_u64();
    let written = match rng.below(8) {
        0 => encode_frame(
            &mut buf,
            &ClientMsg::Submit {
                req,
                tenant: rng.below(8) as u32,
                instance: rng.next_u64(),
            },
        ),
        1 => encode_frame(
            &mut buf,
            &ClientMsg::Resolve {
                req,
                ticket: rng.next_u64(),
                query: query(rng),
                resolution: FlagResolution::Abstain {
                    consulted: rng.next_bool(),
                },
            },
        ),
        2 => encode_frame(
            &mut buf,
            &ClientMsg::Hello {
                version: rng.below(3) as u32,
                resume: rng.next_bool().then(|| rng.next_u64()),
            },
        ),
        3 => encode_frame(
            &mut buf,
            &ClientMsg::InvalidateDb {
                req,
                database: text(rng),
            },
        ),
        4 => encode_frame(
            &mut buf,
            &ServerMsg::NeedsFeedback {
                req,
                target: if rng.next_bool() {
                    LinkTarget::Tables
                } else {
                    LinkTarget::Columns
                },
                query: query(rng),
            },
        ),
        5 => encode_frame(
            &mut buf,
            &ServerMsg::HelloAck {
                version: 1,
                session: rng.next_u64(),
                fingerprint: text(rng),
            },
        ),
        6 => encode_frame(
            &mut buf,
            &ServerMsg::Fault {
                error: EngineError::Protocol { detail: text(rng) },
            },
        ),
        _ => encode_frame(&mut buf, &ServerMsg::Submitted { req }),
    };
    written.expect("generated messages fit a frame");
    buf
}

/// A length prefix chosen to hit every interesting regime: tiny, near
/// the real payload, at and just past `MAX_FRAME`, and absurd.
fn prefix(rng: &mut TestRng, payload: usize) -> u32 {
    let max = MAX_FRAME as u32;
    match rng.below(6) {
        0 => rng.below(16) as u32,
        1 => (payload as u32)
            .saturating_add(rng.below(9) as u32)
            .saturating_sub(4),
        2 => max - rng.below(2) as u32,
        3 => max + 1 + rng.below(1024) as u32,
        4 => u32::MAX,
        _ => rng.next_u64() as u32,
    }
}

/// Read frames until the stream ends or errors (bounded), decoding as
/// both message directions.
fn read_all<R: Read>(mut r: R, as_client: bool) -> Vec<Result<bool, WireError>> {
    let mut out = Vec::new();
    for _ in 0..8 {
        let step = if as_client {
            read_frame::<_, ClientMsg>(&mut r).map(|m| m.is_some())
        } else {
            read_frame::<_, ServerMsg>(&mut r).map(|m| m.is_some())
        };
        let more = matches!(step, Ok(true));
        out.push(step);
        if !more {
            break;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_frames_read_typed_within_max_frame(seed in any::<u64>(), kind in 0usize..4) {
        let mut rng = TestRng::new(seed);
        let mut bytes = valid_frame(&mut rng);
        let payload = bytes.len() - 4;
        match kind {
            // Truncate anywhere: empty is a clean EOF, anything else
            // ends mid-frame.
            0 => {
                let cut = rng.below(bytes.len());
                bytes.truncate(cut);
                let r = read_frame::<_, ServerMsg>(&mut Cursor::new(&bytes));
                if cut == 0 {
                    prop_assert!(matches!(r, Ok(None)), "{r:?}");
                } else {
                    prop_assert!(matches!(r, Err(WireError::Truncated)), "{r:?}");
                }
            }
            // Flip 1–8 bits anywhere, prefix included.
            1 => {
                for _ in 0..1 + rng.below(8) {
                    let at = rng.below(bytes.len());
                    bytes[at] ^= 1 << rng.below(8);
                }
            }
            // Re-prefix: the payload stays, the claimed length lies.
            2 => {
                let len = prefix(&mut rng, payload);
                bytes[..4].copy_from_slice(&len.to_le_bytes());
                if len as usize > MAX_FRAME {
                    let r = read_frame::<_, ClientMsg>(&mut Cursor::new(&bytes));
                    prop_assert!(
                        matches!(r, Err(WireError::TooLarge { len: l }) if l == u64::from(len)),
                        "{r:?}"
                    );
                }
            }
            // Two frames back to back, then a flip or a cut.
            _ => {
                bytes.extend(valid_frame(&mut rng));
                if rng.next_bool() {
                    let at = rng.below(bytes.len());
                    bytes[at] ^= 1 << rng.below(8);
                } else {
                    bytes.truncate(rng.below(bytes.len()));
                }
            }
        }
        LARGEST.store(0, Ordering::Relaxed);
        for as_client in [true, false] {
            // Reaching the end of each loop without a panic is the
            // property; every step is `Ok` or a typed `WireError`.
            let plain = read_all(Cursor::new(&bytes), as_client);
            let buffered = read_all(BufReader::new(Cursor::new(&bytes)), as_client);
            prop_assert_eq!(format!("{plain:?}"), format!("{buffered:?}"));
        }
        let largest = LARGEST.load(Ordering::Relaxed);
        prop_assert!(largest <= MAX_FRAME, "allocated {largest} bytes for a {}-byte input", bytes.len());
    }
}

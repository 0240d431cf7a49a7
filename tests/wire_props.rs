//! Property tests for the wire decoders: `Request::decode` and
//! `Response::decode` face bytes from the network, so on any input —
//! arbitrary byte strings, or valid encodings with bytes overwritten,
//! cut short or extended — they must return `Ok` or `Err`, never panic.

use k2hop::model::Point;
use k2hop::server::{MineReply, Pattern, Request, Response, StatsReply, WireConvoy};
use k2hop::storage::IoStats;
use proptest::prelude::*;

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255, 0..max)
}

/// A byte string that starts with a known tag, so the decoder gets past
/// the tag switch into a message body.
fn tagged_bytes() -> impl Strategy<Value = Vec<u8>> {
    (1u8..=4, bytes(96)).prop_map(|(tag, mut body)| {
        body.insert(0, tag);
        body
    })
}

fn request() -> impl Strategy<Value = Request> {
    (
        0u8..3,
        (0u32..1000, 0u32..1000, 0u8..2, 0u32..20, 0u32..50, 0u32..8),
        proptest::collection::vec((0u32..500, 0u32..500, -99i32..99, -99i32..99), 0..8),
    )
        .prop_map(
            |(kind, (t_lo, t_hi, flock, m, k, threads), rows)| match kind {
                0 => Request::MineRange {
                    t_lo,
                    t_hi,
                    pattern: if flock == 1 {
                        Pattern::Flock
                    } else {
                        Pattern::Convoy
                    },
                    m,
                    k,
                    eps: f64::from(k) / 4.0,
                    threads,
                },
                1 => Request::Ingest {
                    points: rows
                        .into_iter()
                        .map(|(oid, t, x, y)| Point::new(oid, f64::from(x), f64::from(y), t))
                        .collect(),
                },
                _ => Request::Stats {
                    quiesce: flock == 1,
                },
            },
        )
}

fn response() -> impl Strategy<Value = Response> {
    (
        0u8..4,
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        proptest::collection::vec(
            (
                proptest::collection::vec(0u32..1000, 0..6),
                0u32..100,
                0u32..100,
            ),
            0..5,
        ),
        proptest::collection::vec(32u8..127, 0..24),
    )
        .prop_map(|(kind, (a, b, c), convoys, text)| {
            let text = String::from_utf8(text).expect("printable ASCII");
            match kind {
                0 => Response::Convoys(MineReply {
                    engine: text,
                    threads: (a % 64) as u32,
                    pin_version: a,
                    staleness: b,
                    elapsed_nanos: c,
                    timings_nanos: [a, b, c, a ^ b, b ^ c, a ^ c, a + 1],
                    io: IoStats {
                        seeks: a,
                        blocks_read: b,
                        cache_hits: c,
                        ..IoStats::default()
                    },
                    convoys: convoys
                        .into_iter()
                        .map(|(oids, t_start, t_end)| WireConvoy {
                            oids,
                            t_start,
                            t_end,
                        })
                        .collect(),
                }),
                1 => Response::Ingested {
                    count: a,
                    version: b,
                },
                2 => Response::Stats(StatsReply {
                    num_points: a,
                    num_tables: b,
                    memtable_len: c,
                    version: a ^ b,
                    live_pins: b ^ c,
                    maintenance_depth: a ^ c,
                    requests_served: a + b,
                }),
                _ => Response::Error { message: text },
            }
        })
}

/// Edits applied to a valid encoding: byte overwrites (positions are
/// taken modulo the length), then a cut, then appended garbage.
fn mutation() -> impl Strategy<Value = (Vec<(usize, u8)>, usize, Vec<u8>)> {
    (
        proptest::collection::vec((0usize..4096, 0u8..=255), 0..4),
        0usize..4096,
        bytes(8),
    )
}

fn mutate(mut enc: Vec<u8>, (edits, cut, tail): (Vec<(usize, u8)>, usize, Vec<u8>)) -> Vec<u8> {
    if !enc.is_empty() {
        let len = enc.len();
        for (pos, byte) in edits {
            enc[pos % len] = byte;
        }
        enc.truncate(cut % (len + 1));
    }
    enc.extend(tail);
    enc
}

/// Decodes `bytes` both ways; anything that decodes must re-encode to
/// something that decodes again.
fn decode_both(bytes: &[u8]) {
    if let Ok(req) = Request::decode(bytes) {
        assert!(Request::decode(&req.encode()).is_ok(), "{req:?}");
    }
    if let Ok(resp) = Response::decode(bytes) {
        assert!(Response::decode(&resp.encode()).is_ok(), "{resp:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(raw in bytes(128), tagged in tagged_bytes()) {
        decode_both(&raw);
        decode_both(&tagged);
    }

    #[test]
    fn valid_requests_round_trip_and_mutations_never_panic(
        req in request(),
        edits in mutation(),
    ) {
        let enc = req.encode();
        prop_assert_eq!(Request::decode(&enc).unwrap(), req);
        decode_both(&mutate(enc, edits));
    }

    #[test]
    fn valid_responses_round_trip_and_mutations_never_panic(
        resp in response(),
        edits in mutation(),
    ) {
        let enc = resp.encode();
        prop_assert_eq!(Response::decode(&enc).unwrap(), resp);
        decode_both(&mutate(enc, edits));
    }
}

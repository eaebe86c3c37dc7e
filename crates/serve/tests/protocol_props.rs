//! Property tests for the wire protocol: every frame type round-trips
//! exactly, and *no* byte sequence — truncated, oversized, corrupted, or
//! random — can make the decoder panic. Decoding is total: bytes in,
//! `Ok(message)` or a typed `WireError` out.

use dagwave_serve::protocol::{decode_header, FrameDecoder, WireError, HEADER_LEN, MAX_PAYLOAD};
use dagwave_serve::{ErrorCode, Request, Response, WireDelta, WireOp, WireSolution, WireStats};
use proptest::prelude::*;

/// Deterministic splitmix64 so a `(seed, shape)` pair fully determines a
/// generated message (the proptest shim's ranges drive the seeds).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn u32_vec(&mut self, max_len: u64) -> Vec<u32> {
        (0..self.below(max_len))
            .map(|_| self.next() as u32)
            .collect()
    }

    fn string(&mut self, max_len: u64) -> String {
        let n = self.below(max_len);
        (0..n)
            .map(|_| char::from(b'a' + (self.below(26) as u8)))
            .collect()
    }
}

fn arbitrary_request(mix: &mut Mix) -> Request {
    match mix.below(7) {
        0 => Request::Admit {
            tenant: mix.next(),
            arcs: mix.u32_vec(9),
        },
        1 => Request::Retire {
            tenant: mix.next(),
            id: mix.next() as u32,
        },
        2 => Request::Batch {
            tenant: mix.next(),
            ops: (0..mix.below(6))
                .map(|_| {
                    if mix.below(2) == 0 {
                        WireOp::Add(mix.u32_vec(5))
                    } else {
                        WireOp::Remove(mix.next() as u32)
                    }
                })
                .collect(),
        },
        3 => Request::Query { tenant: mix.next() },
        4 => Request::Stats { tenant: mix.next() },
        5 => Request::QueryDelta {
            tenant: mix.next(),
            since: mix.next(),
        },
        _ => Request::Shutdown,
    }
}

fn arbitrary_response(mix: &mut Mix) -> Response {
    match mix.below(8) {
        0 => Response::Admitted {
            id: mix.next() as u32,
        },
        1 => Response::Retired,
        2 => Response::Applied {
            added: mix.u32_vec(9),
        },
        3 => Response::Solution(WireSolution {
            num_colors: mix.next() as u32,
            load: mix.next() as u32,
            optimal: mix.below(2) == 1,
            shard_count: mix.next() as u32,
            strategy: mix.string(12),
            colors: (0..mix.below(8))
                .map(|_| (mix.next() as u32, mix.next() as u32))
                .collect(),
        }),
        4 => Response::Stats(WireStats {
            live_paths: mix.next(),
            shard_count: mix.next(),
            max_load: mix.next(),
            recomputes: mix.next(),
            shards_reused: mix.next(),
            shards_resolved: mix.next(),
            batches: mix.next(),
            applies: mix.next(),
            queries: mix.next(),
            interned_arc_lists: mix.next(),
            intern_hits: mix.next(),
            intern_misses: mix.next(),
            epoch: mix.next(),
            delta_queries: mix.next(),
            delta_resyncs: mix.next(),
            bytes_in: mix.next(),
            bytes_out: mix.next(),
            busy_rejections: mix.next(),
            max_write_queue: mix.next(),
        }),
        5 => Response::Delta(WireDelta {
            epoch: mix.next(),
            span: mix.next() as u32,
            full_resync: mix.below(2) == 1,
            changes: (0..mix.below(8))
                .map(|_| (mix.next() as u32, mix.next() as u32))
                .collect(),
            removed: mix.u32_vec(6),
        }),
        6 => Response::ShuttingDown,
        _ => Response::Error {
            code: ErrorCode::from_u16(mix.next() as u16),
            message: mix.string(20),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request round-trips through its frame bytes exactly, and the
    /// decoder consumes exactly the frame.
    #[test]
    fn request_round_trip(seed in 0u64..1_000_000) {
        let mut mix = Mix(seed);
        let req = arbitrary_request(&mut mix);
        let bytes = req.to_frame();
        let (back, used) = Request::from_frame(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back, req);
        prop_assert_eq!(used, bytes.len());
    }

    /// Every response round-trips the same way (including every error
    /// code, via `ErrorCode::Other` for unknown values).
    #[test]
    fn response_round_trip(seed in 0u64..1_000_000) {
        let mut mix = Mix(seed);
        let resp = arbitrary_response(&mut mix);
        let bytes = resp.to_frame();
        let (back, used) = Response::from_frame(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back, resp);
        prop_assert_eq!(used, bytes.len());
    }

    /// Every *proper prefix* of a valid frame fails with a typed error —
    /// never a panic, never a bogus success.
    #[test]
    fn truncated_requests_err_cleanly(seed in 0u64..100_000) {
        let mut mix = Mix(seed);
        let bytes = arbitrary_request(&mut mix).to_frame();
        for cut in 0..bytes.len() {
            prop_assert!(
                Request::from_frame(&bytes[..cut]).is_err(),
                "prefix of length {cut} decoded"
            );
        }
    }

    /// Same for responses.
    #[test]
    fn truncated_responses_err_cleanly(seed in 0u64..100_000) {
        let mut mix = Mix(seed);
        let bytes = arbitrary_response(&mut mix).to_frame();
        for cut in 0..bytes.len() {
            prop_assert!(
                Response::from_frame(&bytes[..cut]).is_err(),
                "prefix of length {cut} decoded"
            );
        }
    }

    /// Single-byte corruption anywhere in a frame either still decodes to
    /// *some* message (payload-value flips) or errs typed — it never
    /// panics and never consumes a different byte count on success.
    #[test]
    fn corrupted_frames_never_panic(seed in 0u64..100_000, flip in 0usize..64, xor in 1u8..=255) {
        let mut mix = Mix(seed);
        let mut bytes = arbitrary_request(&mut mix).to_frame();
        let i = flip % bytes.len();
        bytes[i] ^= xor;
        if let Ok((_, used)) = Request::from_frame(&bytes) {
            prop_assert!(used <= bytes.len());
        }
        let mut bytes = arbitrary_response(&mut mix).to_frame();
        let i = flip % bytes.len();
        bytes[i] ^= xor;
        if let Ok((_, used)) = Response::from_frame(&bytes) {
            prop_assert!(used <= bytes.len());
        }
    }

    /// Fully random byte soup never panics either decoder.
    #[test]
    fn random_bytes_never_panic(seed in 0u64..100_000, len in 0usize..96) {
        let mut mix = Mix(seed);
        let bytes: Vec<u8> = (0..len).map(|_| mix.next() as u8).collect();
        let _ = Request::from_frame(&bytes);
        let _ = Response::from_frame(&bytes);
        let _ = decode_header(&bytes);
    }

    /// A header declaring a payload over the cap is rejected at the
    /// header — before any allocation — whatever the declared opcode.
    #[test]
    fn oversized_lengths_rejected(extra in 1u32..1000, op in 0u8..=255) {
        let len = MAX_PAYLOAD.saturating_add(extra);
        let mut header = vec![0xDA, 0x02, op, 0x00];
        header.extend_from_slice(&len.to_le_bytes());
        prop_assert_eq!(decode_header(&header), Err(WireError::Oversized(len)));
    }

    /// Every version byte except 0x02 — the one version — is rejected
    /// before the opcode is even looked at.
    #[test]
    fn unknown_versions_rejected(version in 0u8..=255, op in 0u8..=255) {
        prop_assume!(version != 0x02);
        let header = [0xDA, version, op, 0x00, 0, 0, 0, 0];
        prop_assert_eq!(
            decode_header(&header),
            Err(WireError::UnknownVersion(version))
        );
    }

    /// Every opcode outside the request table decodes to UnknownOpcode
    /// (with an empty payload, so structure errors cannot mask it).
    #[test]
    fn unknown_request_opcodes_rejected(op in 0u8..=255) {
        prop_assume!(!(0x01..=0x07).contains(&op));
        prop_assert_eq!(
            Request::decode(op, &[]),
            Err(WireError::UnknownOpcode(op))
        );
    }

    /// The streaming decoder recovers every message from a concatenated
    /// frame stream regardless of how the bytes are chunked — the chunk
    /// boundaries (driven by `seed2`) can split headers, payloads, and
    /// frame boundaries arbitrarily, down to byte-at-a-time.
    #[test]
    fn streaming_decode_is_chunking_invariant(seed in 0u64..100_000, seed2 in 0u64..1_000_000) {
        let mut mix = Mix(seed);
        let mut expected = Vec::new();
        let mut stream = Vec::new();
        for _ in 0..(1 + mix.below(4)) {
            let req = arbitrary_request(&mut mix);
            stream.extend_from_slice(&req.to_frame());
            expected.push(req);
        }
        let mut chunks = Mix(seed2);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut i = 0;
        while i < stream.len() {
            let n = 1 + chunks.below(7) as usize;
            let end = (i + n).min(stream.len());
            dec.push(&stream[i..end]);
            i = end;
            while let Some((op, payload)) = dec.next_frame().expect("valid stream") {
                got.push(Request::decode(op, payload).expect("valid frame"));
            }
        }
        prop_assert_eq!(got, expected);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// Responses stream-decode the same way (the reactor's read path).
    #[test]
    fn streaming_response_decode_is_chunking_invariant(seed in 0u64..100_000, cut in 1usize..9) {
        let mut mix = Mix(seed);
        let resp = arbitrary_response(&mut mix);
        let stream = resp.to_frame();
        let mut dec = FrameDecoder::new();
        let mut got = None;
        for chunk in stream.chunks(cut) {
            dec.push(chunk);
            if let Some((op, payload)) = dec.next_frame().expect("valid stream") {
                got = Some(Response::decode(op, payload).expect("valid frame"));
            }
        }
        prop_assert_eq!(got, Some(resp));
    }

    /// Feeding the streaming decoder random byte soup never panics: it
    /// either waits for more bytes or fails with a typed header error.
    #[test]
    fn streaming_decode_of_random_bytes_never_panics(seed in 0u64..100_000, len in 0usize..96) {
        let mut mix = Mix(seed);
        let bytes: Vec<u8> = (0..len).map(|_| mix.next() as u8).collect();
        let mut dec = FrameDecoder::new();
        for chunk in bytes.chunks(5) {
            dec.push(chunk);
            if dec.next_frame().is_err() {
                break; // header errors are sticky: the stream is dead
            }
        }
    }
}

/// The header length constant and the frame overhead agree (a change to
/// either is a wire-format break and must be deliberate).
#[test]
fn frame_overhead_is_header_len() {
    let req = Request::Shutdown;
    assert_eq!(
        req.to_frame().len(),
        HEADER_LEN + req.encode_payload().len()
    );
    assert_eq!(HEADER_LEN, 8);
}

/// Trailing garbage after a structurally complete payload is an error,
/// not silently ignored (catches length-prefix desync early).
#[test]
fn trailing_payload_bytes_rejected() {
    let mut payload = Request::Query { tenant: 9 }.encode_payload();
    payload.extend_from_slice(&[1, 2, 3]);
    assert_eq!(Request::decode(0x04, &payload), Err(WireError::Trailing(3)));
}

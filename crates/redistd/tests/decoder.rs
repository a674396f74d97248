//! Adversarial-chunking tests for the resumable [`FrameDecoder`], the
//! server's only reader.
//!
//! The I/O threads see whatever byte boundaries `read(2)` happens to
//! return: length prefixes split across reads, several messages coalesced
//! into one read, one byte at a time from a pathological peer. Whatever
//! the chunking, the decoded message sequence must be exactly the list of
//! messages that was encoded onto the stream.

use proptest::collection::vec;
use proptest::prelude::*;
use redistd::wire::{self, FrameDecoder, Incoming, FLIGHT_COMMAND, METRICS_COMMAND};

/// A message to place on the wire: a binary frame or an admin command.
#[derive(Clone, Debug)]
enum Msg {
    Frame(Vec<u8>),
    Metrics,
    Flight,
}

fn encode(msgs: &[Msg]) -> Vec<u8> {
    let mut out = Vec::new();
    for m in msgs {
        match m {
            Msg::Frame(payload) => {
                out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                out.extend_from_slice(payload);
            }
            Msg::Metrics => out.extend_from_slice(METRICS_COMMAND),
            Msg::Flight => out.extend_from_slice(FLIGHT_COMMAND),
        }
    }
    out
}

/// The oracle: what the decoder must yield for `msgs`, in order.
fn expected(msgs: &[Msg]) -> Vec<Incoming> {
    msgs.iter()
        .map(|m| match m {
            Msg::Frame(payload) => Incoming::Frame(payload.clone()),
            Msg::Metrics => Incoming::Metrics,
            Msg::Flight => Incoming::Flight,
        })
        .collect()
}

/// Incremental decode: feed the stream through the decoder in the given
/// chunk sizes (cycled), draining after every extend. Asserts the decoder
/// ends clean: no buffered bytes, not mid-message.
fn chunked_decode(stream: &[u8], chunks: &[usize]) -> Vec<Incoming> {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    let mut fed = 0;
    let mut i = 0;
    while fed < stream.len() {
        let take = chunks[i % chunks.len()].max(1).min(stream.len() - fed);
        i += 1;
        dec.extend(&stream[fed..fed + take]);
        fed += take;
        while let Some(msg) = dec.poll().expect("well-formed stream") {
            out.push(msg);
        }
    }
    assert_eq!(dec.pending_bytes(), 0, "decoder ended with buffered bytes");
    assert!(!dec.is_mid_message(), "decoder ended mid-message");
    out
}

/// A strategy for one message: mostly frames (random payloads, including
/// empty), sprinkled with both admin commands.
fn msg_strategy() -> impl Strategy<Value = Msg> {
    (0usize..10, vec(0u8..=255, 0..48)).prop_map(|(kind, payload)| match kind {
        0 => Msg::Metrics,
        1 => Msg::Flight,
        _ => Msg::Frame(payload),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random messages, random chunk boundaries (1..16 bytes, cycled) —
    /// the general case, which routinely splits length prefixes and admin
    /// command tails across feeds.
    #[test]
    fn decoder_matches_encoding_under_random_chunking(
        msgs in vec(msg_strategy(), 0..12),
        chunks in vec(1usize..16, 1..24),
    ) {
        let stream = encode(&msgs);
        prop_assert_eq!(chunked_decode(&stream, &chunks), expected(&msgs));
    }

    /// One byte per feed — every prefix of every message is observed as a
    /// partial state.
    #[test]
    fn decoder_matches_encoding_at_one_byte_per_feed(
        msgs in vec(msg_strategy(), 1..8),
    ) {
        let stream = encode(&msgs);
        prop_assert_eq!(chunked_decode(&stream, &[1]), expected(&msgs));
    }

    /// The whole stream in a single feed — maximally coalesced messages
    /// must come out one `poll` at a time, in order.
    #[test]
    fn decoder_matches_encoding_when_fully_coalesced(
        msgs in vec(msg_strategy(), 1..12),
    ) {
        let stream = encode(&msgs);
        prop_assert_eq!(chunked_decode(&stream, &[usize::MAX]), expected(&msgs));
    }

    /// Chunk boundaries placed exactly around the 4-byte sniff window:
    /// feeds of 3, 4 and 5 bytes keep slicing length prefixes and admin
    /// magic at their most confusing offsets.
    #[test]
    fn decoder_matches_encoding_around_prefix_boundaries(
        msgs in vec(msg_strategy(), 1..10),
        first in 1usize..6,
    ) {
        let stream = encode(&msgs);
        prop_assert_eq!(chunked_decode(&stream, &[first, 3, 4, 5]), expected(&msgs));
    }
}

/// Real requests (not random bytes) survive re-chunking: encode a planning
/// request, slice it pathologically, and check the decoded frame still
/// parses into the identical request.
#[test]
fn real_request_survives_pathological_chunking() {
    let traffic = {
        let mut t = kpbs::TrafficMatrix::zeros(4, 4);
        t.set(0, 1, 5_000_000);
        t.set(2, 3, 7_000_000);
        t
    };
    let platform = kpbs::Platform::new(4, 4, 100.0, 100.0, 400.0);
    let req = redistd::client::request(42, wire::Algo::Oggp, &traffic, &platform, 0.05);
    let stream = wire::encode_request(&req);

    for chunk in [1usize, 2, 3, 5, 7] {
        let mut dec = FrameDecoder::new();
        let mut decoded = None;
        for piece in stream.chunks(chunk) {
            dec.extend(piece);
            if let Some(Incoming::Frame(payload)) = dec.poll().unwrap() {
                decoded = Some(wire::decode_request(&payload).unwrap());
            }
        }
        let got = decoded.expect("one frame per stream");
        assert_eq!(got.request_id, req.request_id);
        assert_eq!(wire::encode_request(&got), stream);
    }
}

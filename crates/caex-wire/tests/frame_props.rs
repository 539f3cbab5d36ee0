//! Property battery for the wire frame codec: random protocol
//! messages round-trip bit-exactly; random corruption — flipped bytes,
//! truncation at every cut, bogus versions, hostile length prefixes,
//! raw byte soup — fails *cleanly*, never panics, never allocates from
//! an attacker-controlled length. Two plain tests hold what a round
//! trip cannot see: the bytes themselves (a table of frames in hex) and
//! a non-canonical payload under a *valid* CRC.

use caex::Msg;
use caex_action::ActionId;
use caex_net::NodeId;
use caex_tree::{Exception, ExceptionId, Severity};
use caex::codec::{self, CodecError};
use caex_wire::frame::{
    crc32, decode_frame, encode_frame, read_frame, Frame, FrameError, MAX_PAYLOAD, VERSION,
};
use proptest::prelude::*;

/// Printable-plus-multibyte palette, so origin/detail strings exercise
/// UTF-8 boundaries without inventing a full string strategy.
const PALETTE: &[&str] = &["a", "B", "7", " ", "_", "é", "λ", "中", "🦀", "\n", "\""];

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0..24)
        .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect())
}

fn arb_exception() -> impl Strategy<Value = Exception> {
    (
        any::<u32>(),
        0u8..3,
        prop::option::of(arb_string()),
        prop::option::of(arb_string()),
    )
        .prop_map(|(id, sev, origin, detail)| {
            let severity = match sev {
                0 => Severity::Recoverable,
                1 => Severity::Serious,
                _ => Severity::Fatal,
            };
            let mut exc = Exception::new(ExceptionId::new(id)).with_severity(severity);
            if let Some(o) = origin {
                exc = exc.with_origin(o);
            }
            if let Some(d) = detail {
                exc = exc.with_detail(d);
            }
            exc
        })
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    let action = any::<u32>().prop_map(ActionId::new);
    let node = any::<u32>().prop_map(NodeId::new);
    prop_oneof![
        (action.boxed(), node.boxed(), arb_exception().boxed()).prop_map(
            |(action, from, exc)| Msg::Exception { action, from, exc }
        ),
        (any::<u32>(), any::<u32>())
            .prop_map(|(f, a)| Msg::HaveNested { from: NodeId::new(f), action: ActionId::new(a) }),
        (any::<u32>(), any::<u32>(), prop::option::of(arb_exception())).prop_map(
            |(a, f, exc)| Msg::NestedCompleted {
                action: ActionId::new(a),
                from: NodeId::new(f),
                exc,
            }
        ),
        (any::<u32>(), any::<u32>())
            .prop_map(|(f, a)| Msg::Ack { from: NodeId::new(f), action: ActionId::new(a) }),
        (any::<u32>(), any::<u32>(), arb_exception()).prop_map(|(a, f, exc)| Msg::Commit {
            action: ActionId::new(a),
            from: NodeId::new(f),
            exc,
        }),
        (any::<u32>(), any::<u32>(), any::<bool>()).prop_map(|(f, a, handled)| Msg::LeaveReady {
            from: NodeId::new(f),
            action: ActionId::new(a),
            handled,
        }),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u32>(), any::<u32>())
            .prop_map(|(id, incarnation)| Frame::Hello { id: NodeId::new(id), incarnation }),
        Just(Frame::Heartbeat),
        Just(Frame::Ready),
        (any::<u32>(), any::<u64>(), arb_msg())
            .prop_map(|(f, sent_us, msg)| Frame::Msg { from: NodeId::new(f), sent_us, msg }),
        Just(Frame::Bye),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode → decode is the identity for every frame, and the
    /// decoder consumes exactly the bytes the encoder produced.
    #[test]
    fn every_random_frame_round_trips(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        let (back, used) = decode_frame(&bytes).expect("round trip");
        prop_assert_eq!(&back, &frame);
        prop_assert_eq!(used, bytes.len());
    }

    /// Flipping any single byte in the CRC-protected regions (version,
    /// length, checksum, payload) is detected; nothing panics, and
    /// nothing decodes to a *different* valid frame. The kind byte is
    /// deliberately outside the CRC (see the frame-format docs), so a
    /// flip there may swap one empty-payload control frame for another
    /// — but never alter a protocol message.
    #[test]
    fn single_byte_corruption_never_yields_a_different_frame(
        frame in arb_frame(),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let bytes = encode_frame(&frame);
        let pos = (pos_seed % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= flip;
        match decode_frame(&corrupt) {
            // A flip in the length prefix may leave a valid prefix of
            // the original bytes undecodable — any error is fine.
            Err(_) => {}
            Ok((back, _)) if pos == 1 => prop_assert!(
                !matches!(back, Frame::Msg { .. }) || back == frame,
                "a kind-byte flip must never fabricate a protocol message"
            ),
            Ok((back, _)) => prop_assert_eq!(
                back, frame,
                "corruption at byte {} produced a different frame", pos
            ),
        }
    }

    /// A flipped payload byte specifically trips the CRC check (the
    /// header survives, so the error must be `BadCrc`).
    #[test]
    fn payload_corruption_is_a_crc_error(
        msg in arb_msg(),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let frame = Frame::Msg { from: NodeId::new(9), sent_us: 77, msg };
        let bytes = encode_frame(&frame);
        let payload_len = bytes.len() - 10;
        if payload_len == 0 {
            return;
        }
        let pos = 10 + (pos_seed % payload_len as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= flip;
        match decode_frame(&corrupt) {
            Err(FrameError::BadCrc { .. }) => {}
            other => prop_assert!(false, "expected BadCrc, got {:?}", other.map(|(f, _)| f)),
        }
    }

    /// Every possible truncation point fails with `Truncated` — the
    /// codec never misreads a prefix as a complete frame.
    #[test]
    fn truncation_at_any_cut_is_clean(frame in arb_frame(), cut_seed in any::<u64>()) {
        let bytes = encode_frame(&frame);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        match decode_frame(&bytes[..cut]) {
            Err(FrameError::Truncated) => {}
            other => prop_assert!(
                false,
                "cut at {} of {}: expected Truncated, got {:?}",
                cut, bytes.len(), other.map(|(f, _)| f)
            ),
        }
    }

    /// Any version byte other than the supported one is rejected
    /// before anything else is looked at.
    #[test]
    fn unknown_versions_are_rejected(frame in arb_frame(), version in any::<u8>()) {
        if version == VERSION {
            return;
        }
        let mut bytes = encode_frame(&frame);
        bytes[0] = version;
        match decode_frame(&bytes) {
            Err(FrameError::BadVersion(v)) => prop_assert_eq!(v, version),
            other => prop_assert!(false, "expected BadVersion, got {:?}", other.map(|(f, _)| f)),
        }
    }

    /// A hostile length prefix beyond `MAX_PAYLOAD` errors before any
    /// buffer is allocated, regardless of the claimed size.
    #[test]
    fn oversized_lengths_error_before_allocation(extra in any::<u32>()) {
        let huge = (MAX_PAYLOAD as u64 + 1 + u64::from(extra)).min(u64::from(u32::MAX)) as u32;
        let mut bytes = vec![VERSION, 2 /* heartbeat */];
        bytes.extend_from_slice(&huge.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        match decode_frame(&bytes) {
            Err(FrameError::Oversized(len)) => prop_assert_eq!(len, huge),
            other => prop_assert!(false, "expected Oversized, got {:?}", other.map(|(f, _)| f)),
        }
    }

    /// Raw byte soup never panics the decoder — every outcome is a
    /// clean `Result`, and `Ok` only for genuinely well-formed bytes.
    #[test]
    fn random_byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        if let Ok((frame, used)) = decode_frame(&bytes) {
            // Whatever decoded must re-encode to the bytes read.
            prop_assert_eq!(encode_frame(&frame), bytes[..used].to_vec());
        }
    }

    /// The streaming reader agrees with the buffer decoder: a stream
    /// of random frames reads back in order, and a mid-stream
    /// truncation surfaces as `Truncated`.
    #[test]
    fn streamed_frames_read_back_in_order(
        frames in prop::collection::vec(arb_frame(), 1..8),
        cut_tail in any::<bool>(),
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        if cut_tail {
            stream.pop();
        }
        let mut cursor = std::io::Cursor::new(&stream[..]);
        let complete = if cut_tail { frames.len() - 1 } else { frames.len() };
        for expected in &frames[..complete] {
            let got = read_frame(&mut cursor).expect("well-formed frame");
            prop_assert_eq!(&got, expected);
        }
        if cut_tail {
            match read_frame(&mut cursor) {
                Err(FrameError::Truncated) => {}
                other => prop_assert!(false, "expected Truncated at tail, got {other:?}"),
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The wire format, byte for byte. Every other test here passes if the
/// encoder and the decoder change together; this one does not. A row
/// changes only with `frame::VERSION`.
#[test]
fn the_bytes_on_the_wire_are_pinned() {
    let (action, from) = (ActionId::new(2), NodeId::new(1));
    let bare = Exception::new(ExceptionId::new(7));
    let rich = Exception::new(ExceptionId::new(8))
        .with_severity(Severity::Fatal)
        .with_origin("O1")
        .with_detail("é!");
    assert_eq!(VERSION, 3);
    assert_eq!(
        hex(&encode_frame(&Frame::Hello { id: NodeId::new(3), incarnation: 2 })),
        "0301080000000110a4410300000002000000"
    );
    assert_eq!(hex(&encode_frame(&Frame::Heartbeat)), "03020000000000000000");
    // (message, codec::encoded_len, the frame around it from node 1 at 12 345 µs)
    let table = [
        (
            Msg::Exception { action, from, exc: rich },
            25,
            "030425000000a24965f901000000393000000000000001020000000100000008000000020102004f31010300c3a921",
        ),
        (
            Msg::HaveNested { from, action },
            9,
            "0304150000003fccd73f010000003930000000000000020100000002000000",
        ),
        (
            Msg::NestedCompleted { action, from, exc: None },
            10,
            "0304160000005738b4f501000000393000000000000003020000000100000000",
        ),
        (
            Msg::NestedCompleted { action, from, exc: Some(bare.clone()) },
            17,
            "03041d000000d6fbc5ce0100000039300000000000000302000000010000000107000000000000",
        ),
        (
            Msg::Ack { from, action },
            9,
            "030415000000b5b5cd4c010000003930000000000000040100000002000000",
        ),
        (
            Msg::Commit { action, from, exc: bare },
            16,
            "03041c0000003755318601000000393000000000000005020000000100000007000000000000",
        ),
        (
            Msg::LeaveReady { from, action, handled: false },
            9,
            "030415000000339d3b62010000003930000000000000060100000002000000",
        ),
        (
            Msg::LeaveReady { from, action, handled: true },
            9,
            "03041500000070894075010000003930000000000000070100000002000000",
        ),
    ];
    for (msg, len, wire) in table {
        assert_eq!(codec::encoded_len(&msg), len, "{msg}");
        let frame = Frame::Msg { from: NodeId::new(1), sent_us: 12_345, msg };
        assert_eq!(hex(&encode_frame(&frame)), wire, "{frame:?}");
    }
}

/// The CRC shields the decoder from byte soup, not from a sender that
/// computes it over a non-canonical payload: a presence flag of `2`
/// read as "present" would re-encode as `1`.
#[test]
fn a_presence_flag_of_2_under_a_valid_crc_is_rejected() {
    let msg = Msg::NestedCompleted {
        action: ActionId::new(2),
        from: NodeId::new(1),
        exc: Some(Exception::new(ExceptionId::new(7)).with_origin("O1")),
    };
    let good = encode_frame(&Frame::Msg { from: NodeId::new(1), sent_us: 0, msg });
    // header 10, from + sent_us 12, tag + two ids 9, then the flag; the
    // exception's id and severity put origin's flag 5 bytes further on.
    for flag_at in [31, 37] {
        let mut bytes = good.clone();
        assert_eq!(bytes[flag_at], 1);
        bytes[flag_at] = 2;
        let crc = crc32(&bytes[10..]);
        bytes[6..10].copy_from_slice(&crc.to_le_bytes());
        match decode_frame(&bytes) {
            Err(FrameError::Codec(CodecError::BadFlag(2))) => {}
            other => panic!("flag 2 at byte {flag_at}: {other:?}"),
        }
    }
}

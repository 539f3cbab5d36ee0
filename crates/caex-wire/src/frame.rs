//! The length-prefixed binary frame format `caex-wire` puts on a
//! socket.
//!
//! A frame wraps either a protocol message (encoded by
//! [`caex::codec`]) or one of the transport's own control messages
//! (peer identification, heartbeats, the start barrier, graceful
//! goodbye). Layout, all integers little-endian:
//!
//! ```text
//! version:u8  kind:u8  len:u32  crc:u32  payload[len]
//!
//! kind 1 Hello      payload = id:u32 ++ incarnation:u32
//! kind 2 Heartbeat  payload empty
//! kind 3 Ready      payload empty
//! kind 4 Msg        payload = from:u32 ++ sent_us:u64 ++ caex::codec bytes of msg
//! kind 5 Bye        payload empty
//! ```
//!
//! Version 2 extended the `Msg` payload with `sent_us`, the sender's
//! local clock (microseconds since its run epoch) at the moment the
//! frame was queued. Receivers use it to estimate per-peer clock skew
//! (as `min` over observed `recv_local − sent_us` one-way delays), so
//! traces recorded on different machines can be stitched into one
//! causally-consistent timeline.
//!
//! Version 3 extends `Hello` with an *incarnation* counter: `0` on a
//! node's initial mesh-formation links, bumped for every mid-run
//! redial. An acceptor that sees a Hello with a higher incarnation
//! than the one it recorded for that peer knows the link is a
//! *reconnect* — the peer survived a transient outage and is resuming,
//! not a duplicate or stale dial — and can stand down any suspicion
//! the silence accrued. Older versions are rejected: the mesh is
//! always started as one fleet, so mixed versions indicate an operator
//! error, not a compatibility case worth masking.
//!
//! `crc` is the CRC-32 (IEEE 802.3) of the payload bytes, so a torn or
//! bit-flipped frame is rejected instead of decoded into a wrong —
//! but structurally valid — protocol message. `len` is bounded by
//! [`MAX_PAYLOAD`]; a longer prefix is rejected *before* any
//! allocation, so a corrupt length field cannot OOM the reader.
//!
//! A frame is built in one buffer: [`encode_frame`] writes the header,
//! lets [`caex::codec::encode_into`] write the message behind it and
//! then fills in `len` and `crc`; decoding hands the payload slice
//! straight to [`caex::codec::decode`]. The encoding is canonical —
//! whatever decodes re-encodes to the bytes that were read.

use caex::codec::{self, CodecError};
use caex::Msg;
use caex_net::NodeId;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// The frame-format version this build speaks.
pub const VERSION: u8 = 3;

/// Upper bound on a frame payload. The largest legitimate payload is a
/// protocol message with two maximal (`u16`-capped) strings — well
/// under 256 KiB.
pub const MAX_PAYLOAD: u32 = 1 << 18;

const K_HELLO: u8 = 1;
const K_HEARTBEAT: u8 = 2;
const K_READY: u8 = 3;
const K_MSG: u8 = 4;
const K_BYE: u8 = 5;

/// Everything that crosses a `caex-wire` socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// First frame on every connection: the sender's node id and the
    /// link's incarnation (`0` at mesh formation, bumped per mid-run
    /// redial — a higher incarnation marks the link as a reconnect).
    Hello {
        /// The connecting node.
        id: NodeId,
        /// Dial generation of this link.
        incarnation: u32,
    },
    /// Keep-alive, sent whenever the outbound link is otherwise idle.
    Heartbeat,
    /// Start-barrier announcement: the sender has formed its mesh.
    Ready,
    /// A protocol message of §4.1.
    Msg {
        /// The sending node.
        from: NodeId,
        /// Sender-local send time, microseconds since its run epoch.
        /// Used for clock-skew estimation when stitching traces; the
        /// protocol itself never reads it.
        sent_us: u64,
        /// The message, framed via [`caex::codec`].
        msg: Msg,
    },
    /// Graceful goodbye: the sender is quiescent and leaving. A
    /// connection that ends *without* one is a crash.
    Bye,
}

/// Errors produced while reading or decoding a frame.
#[derive(Debug)]
#[non_exhaustive]
pub enum FrameError {
    /// An I/O error other than a clean end-of-stream.
    Io(io::Error),
    /// The stream ended inside a frame.
    Truncated,
    /// An unknown version byte.
    BadVersion(u8),
    /// An unknown frame kind.
    BadKind(u8),
    /// The payload checksum did not match.
    BadCrc {
        /// CRC carried by the header.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload shape does not match the frame kind.
    Malformed(&'static str),
    /// The payload failed protocol-message decoding.
    Codec(CodecError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Truncated => f.write_str("frame truncated"),
            FrameError::BadVersion(v) => write!(f, "unknown frame version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::BadCrc { expected, actual } => {
                write!(f, "frame crc mismatch: header {expected:#010x}, payload {actual:#010x}")
            }
            FrameError::Oversized(n) => {
                write!(f, "frame payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte cap")
            }
            FrameError::Malformed(what) => write!(f, "malformed frame payload: {what}"),
            FrameError::Codec(e) => write!(f, "frame payload failed message decoding: {e}"),
        }
    }
}

impl Error for FrameError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected, `0xEDB88320`), table-driven.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc_table();
    let mut crc = !0u32;
    for &byte in data {
        let idx = (crc ^ u32::from(byte)) & 0xFF;
        crc = (crc >> 8) ^ TABLE[idx as usize];
    }
    !crc
}

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const HEADER_LEN: usize = 10;

/// Encodes one frame into a fresh buffer: the header with `len` and
/// `crc` left blank, the payload written in place behind it, then the
/// two fields patched from what was written.
#[must_use]
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    // One allocation: the longest control payload is `Hello`'s 8 bytes.
    let body_len = if let Frame::Msg { msg, .. } = frame { codec::encoded_len(msg) } else { 0 };
    let mut out = Vec::with_capacity(HEADER_LEN + 12 + body_len);
    out.extend_from_slice(&[VERSION, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
    out[1] = match frame {
        Frame::Hello { id, incarnation } => {
            out.extend_from_slice(&id.index().to_le_bytes());
            out.extend_from_slice(&incarnation.to_le_bytes());
            K_HELLO
        }
        Frame::Heartbeat => K_HEARTBEAT,
        Frame::Ready => K_READY,
        Frame::Msg { from, sent_us, msg } => {
            out.extend_from_slice(&from.index().to_le_bytes());
            out.extend_from_slice(&sent_us.to_le_bytes());
            codec::encode_into(msg, &mut out);
            K_MSG
        }
        Frame::Bye => K_BYE,
    };
    let len = u32::try_from(out.len() - HEADER_LEN).expect("a payload is well under MAX_PAYLOAD");
    let crc = crc32(&out[HEADER_LEN..]);
    out[2..6].copy_from_slice(&len.to_le_bytes());
    out[6..10].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Writes one frame as a single `write_all`.
///
/// # Errors
///
/// Propagates the write error.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, FrameError> {
    let node = |bytes: &[u8]| -> Result<NodeId, FrameError> {
        let raw: [u8; 4] = bytes
            .try_into()
            .map_err(|_| FrameError::Malformed("node id is not 4 bytes"))?;
        Ok(NodeId::new(u32::from_le_bytes(raw)))
    };
    match kind {
        K_HELLO => {
            if payload.len() != 8 {
                return Err(FrameError::Malformed("hello is not id+incarnation (8 bytes)"));
            }
            Ok(Frame::Hello {
                id: node(&payload[..4])?,
                incarnation: u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes")),
            })
        }
        K_HEARTBEAT | K_READY | K_BYE => {
            if !payload.is_empty() {
                return Err(FrameError::Malformed("control frame carries a payload"));
            }
            Ok(match kind {
                K_HEARTBEAT => Frame::Heartbeat,
                K_READY => Frame::Ready,
                _ => Frame::Bye,
            })
        }
        K_MSG => {
            if payload.len() < 12 {
                return Err(FrameError::Malformed("msg frame shorter than its from+sent_us fields"));
            }
            let from = node(&payload[..4])?;
            let sent_us =
                u64::from_le_bytes(payload[4..12].try_into().expect("8 bytes"));
            let msg = codec::decode(&payload[12..]).map_err(FrameError::Codec)?;
            Ok(Frame::Msg { from, sent_us, msg })
        }
        other => Err(FrameError::BadKind(other)),
    }
}

/// Reads one frame from a blocking stream.
///
/// # Errors
///
/// [`FrameError::Truncated`] on a clean or mid-frame end-of-stream;
/// the header/payload validation errors otherwise.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let version = header[0];
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = header[1];
    let len = u32::from_le_bytes(header[2..6].try_into().expect("4 bytes"));
    let expected = u32::from_le_bytes(header[6..10].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let actual = crc32(&payload);
    if actual != expected {
        return Err(FrameError::BadCrc { expected, actual });
    }
    decode_payload(kind, &payload)
}

/// Decodes exactly one frame from a byte slice, returning it with the
/// number of bytes consumed.
///
/// # Errors
///
/// [`FrameError::Truncated`] if the slice ends inside the frame; the
/// same validation errors as [`read_frame`] otherwise.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), FrameError> {
    let mut cursor = io::Cursor::new(bytes);
    let frame = read_frame(&mut cursor)?;
    #[allow(clippy::cast_possible_truncation)] // cursor position ≤ slice length
    Ok((frame, cursor.position() as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use caex_action::ActionId;
    use caex_tree::{Exception, ExceptionId};

    fn sample_frames() -> Vec<Frame> {
        let msg = Msg::Exception {
            action: ActionId::new(2),
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(7)).with_origin("O1"),
        };
        vec![
            Frame::Hello { id: NodeId::new(3), incarnation: 2 },
            Frame::Heartbeat,
            Frame::Ready,
            Frame::Msg { from: NodeId::new(1), sent_us: 12_345, msg },
            Frame::Bye,
        ]
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The classic CRC-32 check: crc32("123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streams_of_frames_read_back_in_order() {
        let frames = sample_frames();
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cursor = io::Cursor::new(buf);
        for f in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), f);
        }
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Truncated)));
    }

    #[test]
    fn unknown_version_and_kind_are_rejected() {
        let mut bytes = encode_frame(&Frame::Heartbeat);
        bytes[0] = 99;
        assert!(matches!(decode_frame(&bytes), Err(FrameError::BadVersion(99))));

        let mut bytes = encode_frame(&Frame::Heartbeat);
        bytes[1] = 42; // kind is outside the crc, so only the kind check fires
        assert!(matches!(decode_frame(&bytes), Err(FrameError::BadKind(42))));
    }
}

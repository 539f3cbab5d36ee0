//! A compact binary wire format for the protocol messages.
//!
//! The paper stresses that distributed objects "must communicate by the
//! exchange of messages over relatively narrow bandwidth communication
//! channels" (§2.1), so the *byte* volume of the protocol matters as
//! well as the message count. This module defines the wire encoding the
//! threaded transport would put on a real network and lets the harness
//! report byte volumes per §4.4 workload.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! tag:u8  body…
//!   1 Exception        action:u32 from:u32 exception
//!   2 HaveNested       from:u32 action:u32
//!   3 NestedCompleted  action:u32 from:u32 flag:u8 [exception]
//!   4 Ack              from:u32 action:u32
//!   5 Commit           action:u32 from:u32 exception
//! exception := id:u32 severity:u8 origin:opt_str detail:opt_str
//! opt_str   := 0:u8 | 1:u8 len:u16 utf8-bytes
//! ```
//!
//! # Examples
//!
//! ```
//! use caex::codec;
//! use caex::Msg;
//! use caex_action::ActionId;
//! use caex_net::NodeId;
//! use caex_tree::{Exception, ExceptionId};
//!
//! let msg = Msg::Commit {
//!     action: ActionId::new(1),
//!     from: NodeId::new(2),
//!     exc: Exception::new(ExceptionId::new(9)),
//! };
//! let bytes = codec::encode(&msg);
//! assert_eq!(codec::decode(&bytes).unwrap(), msg);
//! assert_eq!(bytes.len(), codec::encoded_len(&msg));
//! ```

use crate::Msg;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use caex_action::ActionId;
use caex_net::NodeId;
use caex_tree::{Exception, ExceptionId, Severity};
use std::error::Error;
use std::fmt;

/// Errors produced while decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer ended before the message was complete.
    Truncated,
    /// An unknown message tag.
    BadTag(u8),
    /// An unknown severity byte.
    BadSeverity(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Trailing bytes followed a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::BadSeverity(s) => write!(f, "unknown severity byte {s}"),
            CodecError::BadUtf8 => write!(f, "string field is not valid utf-8"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl Error for CodecError {}

const TAG_EXCEPTION: u8 = 1;
const TAG_HAVE_NESTED: u8 = 2;
const TAG_NESTED_COMPLETED: u8 = 3;
const TAG_ACK: u8 = 4;
const TAG_COMMIT: u8 = 5;
const TAG_LEAVE_READY: u8 = 6;

/// The part of `s` a `u16` length prefix can carry. An over-long
/// string is cut at a char boundary, so what is sent still decodes.
fn capped(s: &str) -> &str {
    &s[..s.floor_char_boundary(u16::MAX as usize)]
}

fn put_opt_str(buf: &mut BytesMut, s: Option<&str>) {
    match s {
        None => buf.put_u8(0),
        Some(s) => {
            buf.put_u8(1);
            let bytes = capped(s).as_bytes();
            buf.put_u16_le(bytes.len() as u16);
            buf.put_slice(bytes);
        }
    }
}

fn opt_str_len(s: Option<&str>) -> usize {
    match s {
        None => 1,
        Some(s) => 1 + 2 + capped(s).len(),
    }
}

fn put_exception(buf: &mut BytesMut, exc: &Exception) {
    buf.put_u32_le(exc.id().index());
    buf.put_u8(match exc.severity() {
        Severity::Recoverable => 0,
        Severity::Serious => 1,
        Severity::Fatal => 2,
    });
    put_opt_str(buf, exc.origin());
    put_opt_str(buf, exc.detail());
}

fn exception_len(exc: &Exception) -> usize {
    4 + 1 + opt_str_len(exc.origin()) + opt_str_len(exc.detail())
}

/// Encodes a message into a freshly allocated buffer.
#[must_use]
pub fn encode(msg: &Msg) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(msg));
    match msg {
        Msg::Exception { action, from, exc } => {
            buf.put_u8(TAG_EXCEPTION);
            buf.put_u32_le(action.index());
            buf.put_u32_le(from.index());
            put_exception(&mut buf, exc);
        }
        Msg::HaveNested { from, action } => {
            buf.put_u8(TAG_HAVE_NESTED);
            buf.put_u32_le(from.index());
            buf.put_u32_le(action.index());
        }
        Msg::NestedCompleted { action, from, exc } => {
            buf.put_u8(TAG_NESTED_COMPLETED);
            buf.put_u32_le(action.index());
            buf.put_u32_le(from.index());
            match exc {
                None => buf.put_u8(0),
                Some(exc) => {
                    buf.put_u8(1);
                    put_exception(&mut buf, exc);
                }
            }
        }
        Msg::Ack { from, action } => {
            buf.put_u8(TAG_ACK);
            buf.put_u32_le(from.index());
            buf.put_u32_le(action.index());
        }
        Msg::Commit { action, from, exc } => {
            buf.put_u8(TAG_COMMIT);
            buf.put_u32_le(action.index());
            buf.put_u32_le(from.index());
            put_exception(&mut buf, exc);
        }
        Msg::LeaveReady { from, action } => {
            buf.put_u8(TAG_LEAVE_READY);
            buf.put_u32_le(from.index());
            buf.put_u32_le(action.index());
        }
    }
    buf.freeze()
}

/// Exact size [`encode`] will produce for this message.
#[must_use]
pub fn encoded_len(msg: &Msg) -> usize {
    match msg {
        Msg::Exception { exc, .. } => 1 + 4 + 4 + exception_len(exc),
        Msg::HaveNested { .. } | Msg::Ack { .. } | Msg::LeaveReady { .. } => 1 + 4 + 4,
        Msg::NestedCompleted { exc, .. } => 1 + 4 + 4 + 1 + exc.as_ref().map_or(0, exception_len),
        Msg::Commit { exc, .. } => 1 + 4 + 4 + exception_len(exc),
    }
}

fn get_opt_str(buf: &mut Bytes) -> Result<Option<String>, CodecError> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    match buf.get_u8() {
        0 => Ok(None),
        _ => {
            if buf.remaining() < 2 {
                return Err(CodecError::Truncated);
            }
            let len = buf.get_u16_le() as usize;
            if buf.remaining() < len {
                return Err(CodecError::Truncated);
            }
            let raw = buf.copy_to_bytes(len);
            String::from_utf8(raw.to_vec())
                .map(Some)
                .map_err(|_| CodecError::BadUtf8)
        }
    }
}

fn get_exception(buf: &mut Bytes) -> Result<Exception, CodecError> {
    if buf.remaining() < 5 {
        return Err(CodecError::Truncated);
    }
    let id = ExceptionId::new(buf.get_u32_le());
    let severity = match buf.get_u8() {
        0 => Severity::Recoverable,
        1 => Severity::Serious,
        2 => Severity::Fatal,
        other => return Err(CodecError::BadSeverity(other)),
    };
    let origin = get_opt_str(buf)?;
    let detail = get_opt_str(buf)?;
    let mut exc = Exception::new(id).with_severity(severity);
    if let Some(origin) = origin {
        exc = exc.with_origin(origin);
    }
    if let Some(detail) = detail {
        exc = exc.with_detail(detail);
    }
    Ok(exc)
}

/// Decodes one message, requiring the buffer to contain exactly one.
///
/// # Errors
///
/// Any [`CodecError`] variant, including [`CodecError::TrailingBytes`]
/// when the buffer holds more than one message.
pub fn decode(bytes: &Bytes) -> Result<Msg, CodecError> {
    let mut buf = bytes.clone();
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    let tag = buf.get_u8();
    let need_u32 = |buf: &mut Bytes| -> Result<u32, CodecError> {
        if buf.remaining() < 4 {
            Err(CodecError::Truncated)
        } else {
            Ok(buf.get_u32_le())
        }
    };
    let msg = match tag {
        TAG_EXCEPTION => {
            let action = ActionId::new(need_u32(&mut buf)?);
            let from = NodeId::new(need_u32(&mut buf)?);
            let exc = get_exception(&mut buf)?;
            Msg::Exception { action, from, exc }
        }
        TAG_HAVE_NESTED => {
            let from = NodeId::new(need_u32(&mut buf)?);
            let action = ActionId::new(need_u32(&mut buf)?);
            Msg::HaveNested { from, action }
        }
        TAG_NESTED_COMPLETED => {
            let action = ActionId::new(need_u32(&mut buf)?);
            let from = NodeId::new(need_u32(&mut buf)?);
            if buf.remaining() < 1 {
                return Err(CodecError::Truncated);
            }
            let exc = if buf.get_u8() == 0 {
                None
            } else {
                Some(get_exception(&mut buf)?)
            };
            Msg::NestedCompleted { action, from, exc }
        }
        TAG_ACK => {
            let from = NodeId::new(need_u32(&mut buf)?);
            let action = ActionId::new(need_u32(&mut buf)?);
            Msg::Ack { from, action }
        }
        TAG_COMMIT => {
            let action = ActionId::new(need_u32(&mut buf)?);
            let from = NodeId::new(need_u32(&mut buf)?);
            let exc = get_exception(&mut buf)?;
            Msg::Commit { action, from, exc }
        }
        TAG_LEAVE_READY => {
            let from = NodeId::new(need_u32(&mut buf)?);
            let action = ActionId::new(need_u32(&mut buf)?);
            Msg::LeaveReady { from, action }
        }
        other => return Err(CodecError::BadTag(other)),
    };
    if buf.has_remaining() {
        return Err(CodecError::TrailingBytes(buf.remaining()));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Msg> {
        let action = ActionId::new(3);
        let from = NodeId::new(2);
        let bare = Exception::new(ExceptionId::new(7));
        let rich = Exception::new(ExceptionId::new(8))
            .with_severity(Severity::Fatal)
            .with_origin("sensor-9")
            .with_detail("pressure over limit");
        vec![
            Msg::Exception {
                action,
                from,
                exc: rich.clone(),
            },
            Msg::Exception {
                action,
                from,
                exc: bare.clone(),
            },
            Msg::HaveNested { from, action },
            Msg::NestedCompleted {
                action,
                from,
                exc: None,
            },
            Msg::NestedCompleted {
                action,
                from,
                exc: Some(rich),
            },
            Msg::Ack { from, action },
            Msg::Commit {
                action,
                from,
                exc: bare,
            },
            Msg::LeaveReady { from, action },
        ]
    }

    #[test]
    fn round_trips_every_variant() {
        for msg in samples() {
            let bytes = encode(&msg);
            assert_eq!(decode(&bytes).unwrap(), msg, "{msg}");
        }
    }

    #[test]
    fn encoded_len_is_exact() {
        for msg in samples() {
            assert_eq!(encode(&msg).len(), encoded_len(&msg), "{msg}");
        }
    }

    #[test]
    fn ack_is_the_smallest_message() {
        let ack = Msg::Ack {
            from: NodeId::new(0),
            action: ActionId::new(0),
        };
        assert_eq!(encoded_len(&ack), 9);
        for msg in samples() {
            assert!(encoded_len(&msg) >= 9);
        }
    }

    #[test]
    fn truncation_is_detected_at_every_cut() {
        for msg in samples() {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                let prefix = bytes.slice(0..cut);
                assert!(
                    decode(&prefix).is_err(),
                    "{msg} decoded from {cut}/{} bytes",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let msg = Msg::Ack {
            from: NodeId::new(1),
            action: ActionId::new(1),
        };
        let mut extended = BytesMut::from(&encode(&msg)[..]);
        extended.put_u8(0xFF);
        assert_eq!(
            decode(&extended.freeze()),
            Err(CodecError::TrailingBytes(1))
        );
    }

    #[test]
    fn bad_tag_and_severity_are_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(99);
        assert_eq!(decode(&buf.freeze()), Err(CodecError::BadTag(99)));

        let mut buf = BytesMut::new();
        buf.put_u8(TAG_COMMIT);
        buf.put_u32_le(0); // action
        buf.put_u32_le(0); // from
        buf.put_u32_le(0); // exception id
        buf.put_u8(7); // bad severity
        buf.put_u8(0);
        buf.put_u8(0);
        assert_eq!(decode(&buf.freeze()), Err(CodecError::BadSeverity(7)));
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_COMMIT);
        buf.put_u32_le(0); // action
        buf.put_u32_le(2); // from
        buf.put_u32_le(1); // exception id
        buf.put_u8(0); // severity
        buf.put_u8(1); // origin present
        buf.put_u16_le(2);
        buf.put_slice(&[0xFF, 0xFE]); // invalid utf-8
        buf.put_u8(0); // no detail
        assert_eq!(decode(&buf.freeze()), Err(CodecError::BadUtf8));
    }

    #[test]
    fn long_strings_are_capped_at_u16() {
        let long = "x".repeat(70_000);
        let msg = Msg::Commit {
            action: ActionId::new(0),
            from: NodeId::new(0),
            exc: Exception::new(ExceptionId::new(1)).with_detail(long),
        };
        let bytes = encode(&msg);
        let decoded = decode(&bytes).unwrap();
        if let Msg::Commit { exc, .. } = decoded {
            assert_eq!(exc.detail().unwrap().len(), u16::MAX as usize);
        } else {
            panic!("wrong variant");
        }
    }
}

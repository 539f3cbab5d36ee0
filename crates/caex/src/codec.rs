//! A compact binary wire format for the protocol messages.
//!
//! The paper stresses that distributed objects "must communicate by the
//! exchange of messages over relatively narrow bandwidth communication
//! channels" (§2.1), so the *byte* volume of the protocol matters as
//! well as the message count. This module is the one place a protocol
//! message becomes bytes: `caex-wire` frames what [`encode_into`]
//! writes, and the harness reports byte volumes per §4.4 workload from
//! [`encoded_len`].
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
//! The encoding is canonical: a presence flag is `0` or `1` and nothing
//! else, so whatever [`decode`] accepts re-encodes to the bytes it read.
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
    /// A presence flag other than `0` or `1`.
    BadFlag(u8),
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
            CodecError::BadFlag(b) => write!(f, "presence flag {b} is neither 0 nor 1"),
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

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            let bytes = capped(s).as_bytes();
            out.push(1);
            out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
            out.extend_from_slice(bytes);
        }
    }
}

fn opt_str_len(s: Option<&str>) -> usize {
    match s {
        None => 1,
        Some(s) => 1 + 2 + capped(s).len(),
    }
}

fn put_exception(out: &mut Vec<u8>, exc: &Exception) {
    put_u32(out, exc.id().index());
    out.push(match exc.severity() {
        Severity::Recoverable => 0,
        Severity::Serious => 1,
        Severity::Fatal => 2,
    });
    put_opt_str(out, exc.origin());
    put_opt_str(out, exc.detail());
}

fn exception_len(exc: &Exception) -> usize {
    4 + 1 + opt_str_len(exc.origin()) + opt_str_len(exc.detail())
}

/// The part every message starts with: its tag and two ids, in the
/// order the layout table gives for that tag.
fn put_head(out: &mut Vec<u8>, tag: u8, first: u32, second: u32) {
    out.push(tag);
    put_u32(out, first);
    put_u32(out, second);
}

/// Appends the encoding of `msg` to `out`: exactly [`encoded_len`]
/// bytes, for which the caller has sized `out` if it wants one
/// allocation.
pub fn encode_into(msg: &Msg, out: &mut Vec<u8>) {
    match msg {
        Msg::Exception { action, from, exc } => {
            put_head(out, TAG_EXCEPTION, action.index(), from.index());
            put_exception(out, exc);
        }
        Msg::HaveNested { from, action } => {
            put_head(out, TAG_HAVE_NESTED, from.index(), action.index());
        }
        Msg::NestedCompleted { action, from, exc } => {
            put_head(out, TAG_NESTED_COMPLETED, action.index(), from.index());
            out.push(u8::from(exc.is_some()));
            if let Some(exc) = exc {
                put_exception(out, exc);
            }
        }
        Msg::Ack { from, action } => put_head(out, TAG_ACK, from.index(), action.index()),
        Msg::Commit { action, from, exc } => {
            put_head(out, TAG_COMMIT, action.index(), from.index());
            put_exception(out, exc);
        }
        Msg::LeaveReady { from, action } => {
            put_head(out, TAG_LEAVE_READY, from.index(), action.index());
        }
    }
}

/// Encodes a message into a freshly allocated buffer.
#[must_use]
pub fn encode(msg: &Msg) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(msg));
    encode_into(msg, &mut out);
    out
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

/// The unread rest of a buffer. Every read goes through [`Reader::take`],
/// the one bounds check of the decoder.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take(N) is N bytes"))
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A presence flag: `0` or `1`, so that decoding stays canonical.
    fn flag(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::BadFlag(other)),
        }
    }

    fn opt_str(&mut self) -> Result<Option<&'a str>, CodecError> {
        if !self.flag()? {
            return Ok(None);
        }
        let len = usize::from(self.u16()?);
        std::str::from_utf8(self.take(len)?)
            .map(Some)
            .map_err(|_| CodecError::BadUtf8)
    }

    fn exception(&mut self) -> Result<Exception, CodecError> {
        let id = ExceptionId::new(self.u32()?);
        let severity = match self.u8()? {
            0 => Severity::Recoverable,
            1 => Severity::Serious,
            2 => Severity::Fatal,
            other => return Err(CodecError::BadSeverity(other)),
        };
        let origin = self.opt_str()?;
        let detail = self.opt_str()?;
        Ok(Exception::new(id)
            .with_severity(severity)
            .with_texts(origin, detail))
    }
}

/// Decodes one message, requiring the buffer to contain exactly one.
///
/// # Errors
///
/// Any [`CodecError`] variant, including [`CodecError::TrailingBytes`]
/// when the buffer holds more than one message.
pub fn decode(bytes: &[u8]) -> Result<Msg, CodecError> {
    let mut r = Reader(bytes);
    // Fields are read in the order written here, which is the layout's.
    let msg = match r.u8()? {
        TAG_EXCEPTION => Msg::Exception {
            action: ActionId::new(r.u32()?),
            from: NodeId::new(r.u32()?),
            exc: r.exception()?,
        },
        TAG_HAVE_NESTED => Msg::HaveNested {
            from: NodeId::new(r.u32()?),
            action: ActionId::new(r.u32()?),
        },
        TAG_NESTED_COMPLETED => Msg::NestedCompleted {
            action: ActionId::new(r.u32()?),
            from: NodeId::new(r.u32()?),
            exc: if r.flag()? {
                Some(r.exception()?)
            } else {
                None
            },
        },
        TAG_ACK => Msg::Ack {
            from: NodeId::new(r.u32()?),
            action: ActionId::new(r.u32()?),
        },
        TAG_COMMIT => Msg::Commit {
            action: ActionId::new(r.u32()?),
            from: NodeId::new(r.u32()?),
            exc: r.exception()?,
        },
        TAG_LEAVE_READY => Msg::LeaveReady {
            from: NodeId::new(r.u32()?),
            action: ActionId::new(r.u32()?),
        },
        other => return Err(CodecError::BadTag(other)),
    };
    if !r.0.is_empty() {
        return Err(CodecError::TrailingBytes(r.0.len()));
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
                assert_eq!(
                    decode(&bytes[..cut]),
                    Err(CodecError::Truncated),
                    "{msg} decoded from {cut}/{} bytes",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut extended = encode(&Msg::Ack {
            from: NodeId::new(1),
            action: ActionId::new(1),
        });
        extended.push(0xFF);
        assert_eq!(decode(&extended), Err(CodecError::TrailingBytes(1)));
    }

    /// `Commit` for action 0 from node 2 with exception 1, up to and
    /// including the severity byte.
    fn commit_up_to_severity(severity: u8) -> Vec<u8> {
        let mut buf = vec![TAG_COMMIT];
        put_u32(&mut buf, 0); // action
        put_u32(&mut buf, 2); // from
        put_u32(&mut buf, 1); // exception id
        buf.push(severity);
        buf
    }

    #[test]
    fn bad_tag_and_severity_are_rejected() {
        assert_eq!(decode(&[99]), Err(CodecError::BadTag(99)));
        assert_eq!(decode(&[0]), Err(CodecError::BadTag(0)));

        let mut buf = commit_up_to_severity(7);
        buf.extend_from_slice(&[0, 0]);
        assert_eq!(decode(&buf), Err(CodecError::BadSeverity(7)));
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut buf = commit_up_to_severity(0);
        buf.push(1); // origin present
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]); // invalid utf-8
        buf.push(0); // no detail
        assert_eq!(decode(&buf), Err(CodecError::BadUtf8));
    }

    #[test]
    fn presence_flags_other_than_0_and_1_are_rejected() {
        // A string's presence byte.
        let mut buf = commit_up_to_severity(0);
        buf.extend_from_slice(&[2, 0, 0, 0]); // "origin, 0 bytes long" under flag 2, no detail
        assert_eq!(decode(&buf), Err(CodecError::BadFlag(2)));
        buf[14] = 1;
        assert!(decode(&buf).is_ok(), "the same bytes under flag 1 decode");

        // `NestedCompleted`'s exception flag.
        let mut buf = encode(&Msg::NestedCompleted {
            action: ActionId::new(3),
            from: NodeId::new(2),
            exc: Some(Exception::new(ExceptionId::new(7))),
        });
        assert_eq!(buf[9], 1);
        buf[9] = 0xFF;
        assert_eq!(decode(&buf), Err(CodecError::BadFlag(0xFF)));
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

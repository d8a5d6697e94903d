//! The little-endian primitives VITAL checkpoints are written in.
//!
//! A [`Writer`] appends values to a buffer and a [`Reader`] takes them back
//! off a byte slice, in the order the caller names them:
//!
//! | value | encoding |
//! |---|---|
//! | `bool` | one byte, `0`/`1` (anything else is a typed error) |
//! | `u8`/`u32`/`u64` | fixed-width little-endian |
//! | `f32`/`f64` | IEEE-754 bit pattern as `u32`/`u64`: NaN payloads survive, round-trips are **bit-exact** |
//! | `str` | `u64` byte length + UTF-8 bytes |
//! | length | `u64` element count |
//!
//! The format is *not self-describing*: the reader must know what comes
//! next, which is exactly the checkpoint case (`vital::Checkpoint` spells
//! out its fields in both directions). Every failure mode (truncation,
//! trailing garbage, invalid booleans or UTF-8, a length the remaining
//! input cannot back) surfaces as a typed [`BinError`], never a panic, and
//! nothing is allocated for a claim before the bytes behind it are known
//! to be there.
//!
//! # Example
//! ```
//! let mut w = binio::Writer::new();
//! w.str("weights");
//! w.f32s(&[1.0, f32::NAN]);
//! let bytes = w.into_bytes();
//!
//! let mut r = binio::Reader::new(&bytes);
//! assert_eq!(r.str().unwrap(), "weights");
//! let back = r.f32s(2).unwrap();
//! assert_eq!(back[0], 1.0);
//! assert!(back[1].is_nan());
//! r.finish().unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]
#![warn(rust_2018_idioms)]

use std::error::Error;
use std::fmt;

/// Typed decoding failures of the binary format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The input ended before a value could be fully read.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were actually left.
        remaining: usize,
    },
    /// Decoding finished but input bytes were left over.
    TrailingBytes {
        /// Number of unread bytes.
        extra: usize,
    },
    /// A boolean byte was neither `0` nor `1`.
    InvalidBool(u8),
    /// A string's bytes were not valid UTF-8.
    InvalidUtf8,
    /// A struct's field-count byte did not match the expected type.
    StructMismatch {
        /// Struct the decoder expected.
        name: &'static str,
        /// Field count the decoder expected.
        expected: usize,
        /// Field count found on the wire.
        found: usize,
    },
    /// A length claim exceeded what the remaining input could possibly
    /// back.
    LengthOverflow {
        /// The claimed length.
        claimed: u64,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// Data-level validation failed (unknown enum variant, inconsistent
    /// shape, …).
    InvalidData(String),
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of input: needed {needed} bytes, {remaining} remaining"
            ),
            BinError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last decoded value")
            }
            BinError::InvalidBool(b) => write!(f, "invalid boolean byte {b:#04x}"),
            BinError::InvalidUtf8 => write!(f, "string bytes are not valid UTF-8"),
            BinError::StructMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "struct {name} expects {expected} fields, wire says {found}"
            ),
            BinError::LengthOverflow { claimed, remaining } => write!(
                f,
                "length claim {claimed} exceeds the {remaining} input bytes remaining"
            ),
            BinError::InvalidData(msg) => write!(f, "invalid data: {msg}"),
        }
    }
}

impl Error for BinError {}

/// Appends values in the binary layout to an owned buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes (a magic number) with no length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a boolean as one `0`/`1` byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `usize` (an element count, a dimension) as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f32` as its bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Appends each `f32` of `v` as its bit pattern, with no length prefix.
    pub fn f32s(&mut self, v: &[f32]) {
        self.buf.reserve(4 * v.len());
        for &x in v {
            self.f32(x);
        }
    }

    /// Appends an `f64` as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a string as its `u64` byte length and its UTF-8 bytes.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.bytes(v.as_bytes());
    }
}

/// Takes values in the binary layout off the front of a byte slice.
///
/// Every read fails with [`BinError::UnexpectedEof`] if the input ends
/// first; the other errors are named where a read can raise them.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Reader { input }
    }

    /// Requires the whole input to have been consumed
    /// ([`BinError::TrailingBytes`] otherwise).
    pub fn finish(&self) -> Result<(), BinError> {
        match self.input.len() {
            0 => Ok(()),
            extra => Err(BinError::TrailingBytes { extra }),
        }
    }

    /// Takes the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        let Some((head, rest)) = self.input.split_at_checked(n) else {
            return Err(BinError::UnexpectedEof {
                needed: n,
                remaining: self.input.len(),
            });
        };
        self.input = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], BinError> {
        let (bytes, _) = self.bytes(N)?.as_chunks::<N>();
        // `bytes(N)` returned exactly N bytes, so this is one chunk.
        bytes.first().copied().ok_or(BinError::UnexpectedEof {
            needed: N,
            remaining: 0,
        })
    }

    /// Reads a `0`/`1` boolean byte ([`BinError::InvalidBool`] otherwise).
    pub fn bool(&mut self) -> Result<bool, BinError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(BinError::InvalidBool(other)),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, BinError> {
        let [byte] = self.array()?;
        Ok(byte)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, BinError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, BinError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a `u64` that must fit a `usize` ([`BinError::InvalidData`]
    /// otherwise).
    pub fn usize(&mut self) -> Result<usize, BinError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| BinError::InvalidData(format!("{v} does not fit usize")))
    }

    /// Reads the element count of a sequence whose every element takes at
    /// least `min_bytes` bytes, so a caller may reserve the count it
    /// returns: a claim the remaining input cannot back is a
    /// [`BinError::LengthOverflow`] before anything is allocated.
    pub fn len(&mut self, min_bytes: usize) -> Result<usize, BinError> {
        let claimed = self.u64()?;
        let remaining = self.input.len();
        usize::try_from(claimed)
            .ok()
            .filter(|&n| n.saturating_mul(min_bytes.max(1)) <= remaining)
            .ok_or(BinError::LengthOverflow { claimed, remaining })
    }

    /// Reads an `f32` from its bit pattern.
    pub fn f32(&mut self) -> Result<f32, BinError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads `n` `f32`s from their bit patterns, allocating only once the
    /// `4·n` bytes are known to be there ([`BinError::LengthOverflow`]
    /// otherwise).
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, BinError> {
        let remaining = self.input.len();
        let bytes = n.checked_mul(4).filter(|&b| b <= remaining);
        let bytes = bytes.ok_or(BinError::LengthOverflow {
            claimed: n as u64,
            remaining,
        })?;
        let (words, _) = self.bytes(bytes)?.as_chunks::<4>();
        Ok(words.iter().map(|&w| f32::from_le_bytes(w)).collect())
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, BinError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64`-length-prefixed UTF-8 string
    /// ([`BinError::InvalidUtf8`] for bad bytes).
    pub fn str(&mut self) -> Result<String, BinError> {
        let len = self.len(1)?;
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| BinError::InvalidUtf8)
    }

    /// Reads a struct's field-count byte and requires it to be `expected`
    /// ([`BinError::StructMismatch`] naming `name` otherwise).
    pub fn fields(&mut self, name: &'static str, expected: u8) -> Result<(), BinError> {
        let found = self.u8()?;
        if found != expected {
            return Err(BinError::StructMismatch {
                name,
                expected: expected.into(),
                found: found.into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.bool(true);
        w.bool(false);
        w.u8(0xAB);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.usize(123);
        w.f32(1.5);
        w.f64(-0.0);
        w.str("héllo");
        w.str("");
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 123);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.str().unwrap(), "");
        r.finish().unwrap();
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f32::from_bits(0x7FC0_1234); // NaN with payload
        let mut w = Writer::new();
        w.f32(weird);
        w.f64(f64::NEG_INFINITY);
        w.f32s(&[weird, f32::INFINITY]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.f32().unwrap().to_bits(), weird.to_bits());
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        let back = r.f32s(2).unwrap();
        assert_eq!(back[0].to_bits(), weird.to_bits());
        assert_eq!(back[1], f32::INFINITY);
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let mut w = Writer::new();
        w.usize(3);
        w.f32s(&[1.0, 2.0, 3.0]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let result = r.len(4).and_then(|n| r.f32s(n));
            assert!(
                matches!(
                    result,
                    Err(BinError::UnexpectedEof { .. }) | Err(BinError::LengthOverflow { .. })
                ),
                "cut at {cut} gave {result:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        w.u32(7);
        w.u8(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32(), Ok(7));
        assert_eq!(r.finish(), Err(BinError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn invalid_bool_and_utf8_are_typed() {
        assert_eq!(Reader::new(&[7]).bool(), Err(BinError::InvalidBool(7)));

        let mut w = Writer::new();
        w.usize(2); // claims 2 bytes
        w.bytes(&[0xFF, 0xFE]); // invalid UTF-8
        assert_eq!(
            Reader::new(&w.into_bytes()).str(),
            Err(BinError::InvalidUtf8)
        );

        let mut r = Reader::new(&[3]);
        assert!(matches!(
            r.fields("Tensor", 2),
            Err(BinError::StructMismatch { found: 3, .. })
        ));
    }

    #[test]
    fn absurd_length_claims_do_not_allocate() {
        // A sequence header claiming u64::MAX elements with no backing
        // bytes must fail fast instead of trying to reserve memory.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        w.u64(u64::MAX / 8);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.len(1), Err(BinError::LengthOverflow { .. })));
        // Eight bytes remain, so a claim of one u64 would pass: each
        // element's width is part of the check.
        assert!(matches!(
            Reader::new(&bytes[8..]).len(8),
            Err(BinError::LengthOverflow { .. })
        ));
        assert!(matches!(
            Reader::new(&[]).f32s(usize::MAX),
            Err(BinError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn errors_display_useful_messages() {
        assert!(BinError::UnexpectedEof {
            needed: 4,
            remaining: 1
        }
        .to_string()
        .contains("needed 4"));
        assert!(BinError::TrailingBytes { extra: 3 }
            .to_string()
            .contains('3'));
        assert!(BinError::StructMismatch {
            name: "Tensor",
            expected: 2,
            found: 5
        }
        .to_string()
        .contains("Tensor"));
        assert!(BinError::InvalidData("boom".into())
            .to_string()
            .contains("boom"));
    }
}

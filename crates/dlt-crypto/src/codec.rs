//! A compact, deterministic binary codec.
//!
//! Every on-ledger structure in the workspace implements [`Encode`]. The
//! encoding serves two purposes:
//!
//! 1. **Hashing preimages.** Block and transaction identifiers are the
//!    hash of the encoded bytes, so the encoding must be deterministic
//!    (no map iteration order, no floats).
//! 2. **Ledger-size accounting.** The paper's §V compares on-disk ledger
//!    sizes; we measure the encoded size of each ledger's contents.
//!
//! Integers use LEB128-style varints so that small values (the common
//! case for amounts, heights and counts) stay small, mirroring the
//! compact-size encodings real ledgers use.
//!
//! [`Decode`] exists only where bytes are read back: account states,
//! which the state trie stores encoded, and the signature family
//! (`Signature`, its WOTS and MSS parts, Merkle proofs), whose tests
//! rebuild tampered copies from bytes. Nothing decodes a block or a
//! transaction: an id is the hash of the encoding and a ledger size a
//! sum of encoded lengths.

use std::fmt;

use crate::digest::Digest;

/// Error returned when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    UnexpectedEnd,
    /// A varint ran past its maximum width or was non-canonical.
    InvalidVarint,
    /// A length prefix exceeded the sanity limit.
    LengthTooLarge(u64),
    /// An enum tag byte had no corresponding variant.
    InvalidTag(u8),
    /// Trailing bytes remained after [`decode_exact`] consumed a value.
    TrailingBytes(usize),
    /// A domain-specific validity check failed during decoding.
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => f.write_str("unexpected end of input"),
            DecodeError::InvalidVarint => f.write_str("invalid varint encoding"),
            DecodeError::LengthTooLarge(n) => write!(f, "length prefix too large: {n}"),
            DecodeError::InvalidTag(t) => write!(f, "invalid enum tag: {t}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            DecodeError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Sanity cap on decoded collection lengths, to stop a hostile length
/// prefix from triggering a huge allocation.
const MAX_LEN: u64 = 16 * 1024 * 1024;

/// Types that can serialise themselves into the deterministic codec.
pub trait Encode {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Returns the encoded representation as a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Number of bytes [`Encode::encode`] would produce. The default
    /// implementation encodes into a scratch buffer; hot types may
    /// override it.
    fn encoded_len(&self) -> usize {
        self.encode_to_vec().len()
    }
}

/// Types that can deserialise themselves from the deterministic codec.
///
/// Decoding consumes from the front of `input`, advancing the slice.
pub trait Decode: Sized {
    /// Decodes one value from the front of `input`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the bytes are malformed.
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError>;
}

/// Decodes a value and requires the input to be fully consumed.
///
/// # Errors
///
/// Fails if decoding fails or bytes remain.
pub fn decode_exact<T: Decode>(mut input: &[u8]) -> Result<T, DecodeError> {
    let value = T::decode(&mut input)?;
    if input.is_empty() {
        Ok(value)
    } else {
        Err(DecodeError::TrailingBytes(input.len()))
    }
}

/// Writes a `u64` as a LEB128 varint.
pub fn write_varint(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a canonical LEB128 varint `u64`, the one form
/// [`write_varint`] produces.
///
/// # Errors
///
/// Fails on truncation, on a varint longer than 10 bytes, and on an
/// overlong one: a zero final byte after the first (`[0x80, 0x00]` is
/// not a second spelling of 0).
pub fn read_varint(input: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = input.split_first().ok_or(DecodeError::UnexpectedEnd)?;
        *input = rest;
        if (shift == 63 && byte > 1) || (shift > 0 && byte == 0) {
            return Err(DecodeError::InvalidVarint);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError::InvalidVarint);
        }
    }
}

/// Number of bytes the varint encoding of `value` occupies.
pub fn varint_len(value: u64) -> usize {
    match value {
        0..=0x7f => 1,
        0x80..=0x3fff => 2,
        0x4000..=0x1f_ffff => 3,
        0x20_0000..=0x0fff_ffff => 4,
        0x1000_0000..=0x7_ffff_ffff => 5,
        0x8_0000_0000..=0x3ff_ffff_ffff => 6,
        0x400_0000_0000..=0x1_ffff_ffff_ffff => 7,
        0x2_0000_0000_0000..=0xff_ffff_ffff_ffff => 8,
        0x100_0000_0000_0000..=0x7fff_ffff_ffff_ffff => 9,
        _ => 10,
    }
}

fn read_n<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if input.len() < n {
        return Err(DecodeError::UnexpectedEnd);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for u8 {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(read_n(input, 1)?[0])
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

macro_rules! impl_varint_codec {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                write_varint(u64::from(*self), out);
            }
            fn encoded_len(&self) -> usize {
                varint_len(u64::from(*self))
            }
        }
        impl Decode for $ty {
            fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
                let v = read_varint(input)?;
                <$ty>::try_from(v).map_err(|_| DecodeError::InvalidVarint)
            }
        }
    )*};
}

impl_varint_codec!(u32, u64);

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(*self as u64, out);
    }
    fn encoded_len(&self) -> usize {
        varint_len(*self as u64)
    }
}

impl Decode for usize {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let v = read_varint(input)?;
        usize::try_from(v).map_err(|_| DecodeError::InvalidVarint)
    }
}

impl Encode for Digest {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

impl Decode for Digest {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let bytes = read_n(input, 32)?;
        let arr: [u8; 32] = bytes.try_into().expect("read_n returned 32 bytes");
        Ok(Digest::from_bytes(arr))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(self.len() as u64, out);
        for item in self {
            item.encode(out);
        }
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = read_varint(input)?;
        if len > MAX_LEN {
            return Err(DecodeError::LengthTooLarge(len));
        }
        let mut out = Vec::with_capacity((len as usize).min(1024));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.encode_to_vec();
        assert_eq!(bytes.len(), value.encoded_len(), "encoded_len mismatch");
        let back: T = decode_exact(&bytes).expect("decode");
        assert_eq!(back, value);
    }

    #[test]
    fn varint_round_trips() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            assert_eq!(buf.len(), varint_len(v), "len for {v}");
            let mut slice = buf.as_slice();
            assert_eq!(read_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = Vec::new();
        write_varint(u64::MAX, &mut buf);
        buf.pop();
        let mut slice = buf.as_slice();
        assert_eq!(read_varint(&mut slice), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn varint_rejects_overflow() {
        // 11 continuation bytes can't be a u64.
        let buf = [0xffu8; 11];
        let mut slice = &buf[..];
        assert!(read_varint(&mut slice).is_err());
    }

    #[test]
    fn varint_rejects_overlong_encodings() {
        for bytes in [
            &[0x80u8, 0x00][..],
            &[0xff, 0x00],
            &[0x81, 0x80, 0x00],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
        ] {
            let mut slice = bytes;
            assert_eq!(
                read_varint(&mut slice),
                Err(DecodeError::InvalidVarint),
                "{bytes:02x?}"
            );
        }
        assert_eq!(
            decode_exact::<u64>(&[0x81, 0x00]),
            Err(DecodeError::InvalidVarint)
        );
        // The canonical two-byte form of 128 and a lone zero still decode.
        assert_eq!(decode_exact::<u64>(&[0x80, 0x01]), Ok(128));
        assert_eq!(decode_exact::<u64>(&[0x00]), Ok(0));
    }

    #[test]
    fn primitive_round_trips() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(true);
        round_trip(false);
        round_trip(12345u32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(vec![1u8, 2, 3]);
        round_trip(Vec::<u8>::new());
        round_trip(vec![sha256(b"a"), sha256(b"b")]);
    }

    #[test]
    fn bool_rejects_bad_tag() {
        assert_eq!(decode_exact::<bool>(&[2]), Err(DecodeError::InvalidTag(2)));
    }

    #[test]
    fn digest_round_trip() {
        round_trip(sha256(b"digest"));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = 5u64.encode_to_vec();
        bytes.push(0);
        assert_eq!(
            decode_exact::<u64>(&bytes),
            Err(DecodeError::TrailingBytes(1))
        );
    }

    #[test]
    fn hostile_length_rejected() {
        let mut buf = Vec::new();
        write_varint(u64::MAX, &mut buf);
        let err = decode_exact::<Vec<u8>>(&buf).unwrap_err();
        assert!(matches!(err, DecodeError::LengthTooLarge(_)));
    }
}

//! Binary encoding of the serde [`Value`] data model.
//!
//! The store persists artifact payloads as an encoded `Value` tree rather
//! than JSON text because the byte-identity contract of a warm restart
//! demands *exact* float round-trips: a prediction recomputed from a stored
//! sample-run profile must be bit-for-bit the prediction the cold run
//! produced. JSON float formatting/parsing cannot promise that, so floats
//! are stored as their IEEE-754 bit patterns ([`f64::to_bits`]) and every
//! other scalar as fixed-width little-endian words.
//!
//! Wire grammar (all integers little-endian):
//!
//! ```text
//! value := 0x00                          ; Null
//!        | 0x01 u8                       ; Bool (0 = false, 1 = true)
//!        | 0x02 i64                      ; Int
//!        | 0x03 u64                      ; UInt
//!        | 0x04 u64                      ; Float (f64 bit pattern)
//!        | 0x05 u32 byte{len}            ; Str (UTF-8)
//!        | 0x06 u32 value{count}         ; Seq
//!        | 0x07 u32 (str value){count}   ; Map (str = u32 len + UTF-8 key)
//!        | 0x08 u32 u32{count}           ; U32s column
//!        | 0x09 u32 u64{count}           ; U64s column
//!        | 0x0A u32 u32{count}           ; F32s column (f32 bit patterns)
//!        | 0x0B u32 u64{count}           ; F64s column (f64 bit patterns)
//! ```
//!
//! A column (the vendored serde's packed numeric sequence: a `Vec<u32>` of
//! CSR targets, a `Vec<f64>` of per-superstep timings) is one slab of
//! fixed-width words behind a single tag and count, so encoding is a copy
//! and decoding one bounds check plus a slice conversion — no per-element
//! tag, no per-element heap node.
//!
//! Encoding is deterministic: the vendored serde's `Value` model already
//! fixes map ordering (struct declaration order, sorted hash maps), so
//! identical artifacts always produce identical bytes — which is what makes
//! payload checksums and golden byte-identity assertions meaningful.
//!
//! Decoding is total: every malformed input maps to a [`CodecError`], never
//! a panic, so a corrupted store file flows into the quarantine path.

use serde::Value;
use std::fmt;

const TAG_NULL: u8 = 0x00;
const TAG_BOOL: u8 = 0x01;
const TAG_INT: u8 = 0x02;
const TAG_UINT: u8 = 0x03;
const TAG_FLOAT: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_SEQ: u8 = 0x06;
const TAG_MAP: u8 = 0x07;
const TAG_U32S: u8 = 0x08;
const TAG_U64S: u8 = 0x09;
const TAG_F32S: u8 = 0x0A;
const TAG_F64S: u8 = 0x0B;

/// Collections larger than this are treated as corruption rather than
/// allocated: the largest real artifact (a CSR edge array) stays far below
/// a billion elements, while a flipped length byte can claim 2^32.
const MAX_COLLECTION_LEN: usize = 1 << 30;

/// Error decoding a binary `Value`; carries the byte offset that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Offset into the payload where decoding failed.
    pub offset: usize,
    /// What went wrong at that offset.
    pub reason: &'static str,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "payload decode failed at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for CodecError {}

/// Encodes a `Value` tree into the store's binary payload format.
pub fn encode_value(value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_into(value, &mut out);
    out
}

fn encode_into(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::UInt(u) => {
            out.push(TAG_UINT);
            out.extend_from_slice(&u.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            encode_str(s, out);
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_into(item, out);
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (key, item) in entries {
                encode_str(key, out);
                encode_into(item, out);
            }
        }
        Value::U32s(items) => encode_column(TAG_U32S, items, out, |x| x.to_le_bytes()),
        Value::U64s(items) => encode_column(TAG_U64S, items, out, |x| x.to_le_bytes()),
        Value::F32s(items) => encode_column(TAG_F32S, items, out, |x| x.to_bits().to_le_bytes()),
        Value::F64s(items) => encode_column(TAG_F64S, items, out, |x| x.to_bits().to_le_bytes()),
    }
}

/// Writes a column: tag, u32 count, then the little-endian slab.
fn encode_column<T: Copy, const W: usize>(
    tag: u8,
    items: &[T],
    out: &mut Vec<u8>,
    word: impl Fn(T) -> [u8; W],
) {
    out.push(tag);
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    out.reserve(items.len() * W);
    for &x in items {
        out.extend_from_slice(&word(x));
    }
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Decodes a payload produced by [`encode_value`], requiring the buffer to
/// contain exactly one value (trailing bytes are corruption).
pub fn decode_value(bytes: &[u8]) -> Result<Value, CodecError> {
    let mut pos = 0usize;
    let value = decode_at(bytes, &mut pos, 0)?;
    if pos != bytes.len() {
        return Err(CodecError {
            offset: pos,
            reason: "trailing bytes after value",
        });
    }
    Ok(value)
}

/// Nesting bound: real artifact trees are a handful of levels deep, while a
/// crafted/corrupt stream of `Seq` tags could otherwise recurse until the
/// stack overflows (a panic the quarantine path must never see).
const MAX_DEPTH: u32 = 64;

fn decode_at(bytes: &[u8], pos: &mut usize, depth: u32) -> Result<Value, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError {
            offset: *pos,
            reason: "value nesting too deep",
        });
    }
    let err = |offset: usize, reason: &'static str| CodecError { offset, reason };
    let tag_offset = *pos;
    let tag = *bytes
        .get(*pos)
        .ok_or(err(tag_offset, "truncated: missing tag"))?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => {
            let b = *bytes.get(*pos).ok_or(err(*pos, "truncated bool"))?;
            *pos += 1;
            match b {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                _ => Err(err(tag_offset, "invalid bool byte")),
            }
        }
        TAG_INT => Ok(Value::Int(i64::from_le_bytes(take8(bytes, pos)?))),
        TAG_UINT => Ok(Value::UInt(u64::from_le_bytes(take8(bytes, pos)?))),
        TAG_FLOAT => Ok(Value::Float(f64::from_bits(u64::from_le_bytes(take8(
            bytes, pos,
        )?)))),
        TAG_STR => Ok(Value::Str(decode_str(bytes, pos)?)),
        TAG_SEQ => {
            let count = take_len(bytes, pos)?;
            let mut items = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                items.push(decode_at(bytes, pos, depth + 1)?);
            }
            Ok(Value::Seq(items))
        }
        TAG_MAP => {
            let count = take_len(bytes, pos)?;
            let mut entries = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let key = decode_str(bytes, pos)?;
                let value = decode_at(bytes, pos, depth + 1)?;
                entries.push((key, value));
            }
            Ok(Value::Map(entries))
        }
        TAG_U32S => decode_column(bytes, pos, u32::from_le_bytes).map(Value::U32s),
        TAG_U64S => decode_column(bytes, pos, u64::from_le_bytes).map(Value::U64s),
        TAG_F32S => {
            decode_column(bytes, pos, |w| f32::from_bits(u32::from_le_bytes(w))).map(Value::F32s)
        }
        TAG_F64S => {
            decode_column(bytes, pos, |w| f64::from_bits(u64::from_le_bytes(w))).map(Value::F64s)
        }
        _ => Err(err(tag_offset, "unknown value tag")),
    }
}

/// Reads a column's count and slices its slab of `W`-byte words out of
/// `bytes` in one bounds check.
fn decode_column<T, const W: usize>(
    bytes: &[u8],
    pos: &mut usize,
    word: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>, CodecError> {
    let count = take_len(bytes, pos)?;
    let start = *pos;
    let end = count
        .checked_mul(W)
        .and_then(|len| start.checked_add(len))
        .filter(|&e| e <= bytes.len())
        .ok_or(CodecError {
            offset: start,
            reason: "truncated column",
        })?;
    *pos = end;
    Ok(bytes[start..end]
        .chunks_exact(W)
        .map(|chunk| {
            let mut w = [0u8; W];
            w.copy_from_slice(chunk);
            word(w)
        })
        .collect())
}

fn take8(bytes: &[u8], pos: &mut usize) -> Result<[u8; 8], CodecError> {
    let end = pos
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or(CodecError {
            offset: *pos,
            reason: "truncated 8-byte word",
        })?;
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(word)
}

fn take_len(bytes: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    let end = pos
        .checked_add(4)
        .filter(|&e| e <= bytes.len())
        .ok_or(CodecError {
            offset: *pos,
            reason: "truncated length",
        })?;
    let len = u32::from_le_bytes([
        bytes[*pos],
        bytes[*pos + 1],
        bytes[*pos + 2],
        bytes[*pos + 3],
    ]) as usize;
    *pos = end;
    if len > MAX_COLLECTION_LEN {
        return Err(CodecError {
            offset: *pos - 4,
            reason: "collection length implausibly large",
        });
    }
    Ok(len)
}

fn decode_str(bytes: &[u8], pos: &mut usize) -> Result<String, CodecError> {
    let len = take_len(bytes, pos)?;
    let start = *pos;
    let end = start
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or(CodecError {
            offset: start,
            reason: "truncated string",
        })?;
    let s = std::str::from_utf8(&bytes[start..end]).map_err(|_| CodecError {
        offset: start,
        reason: "invalid UTF-8 in string",
    })?;
    *pos = end;
    Ok(s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> Value {
        Value::Map(vec![
            ("name".to_string(), Value::Str("pagerank".to_string())),
            ("iters".to_string(), Value::UInt(42)),
            ("delta".to_string(), Value::Int(-7)),
            ("threshold".to_string(), Value::Float(1e-4)),
            ("converged".to_string(), Value::Bool(true)),
            ("missing".to_string(), Value::Null),
            (
                "ratios".to_string(),
                Value::Seq(vec![
                    Value::Float(0.1),
                    Value::Float(0.15),
                    Value::Float(0.2),
                ]),
            ),
        ])
    }

    #[test]
    fn roundtrip_tree() {
        let tree = sample_tree();
        let bytes = encode_value(&tree);
        assert_eq!(decode_value(&bytes).unwrap(), tree);
    }

    #[test]
    fn floats_roundtrip_bit_exact() {
        for f in [
            0.1f64,
            -0.0,
            f64::MIN_POSITIVE,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let bytes = encode_value(&Value::Float(f));
            match decode_value(&bytes).unwrap() {
                Value::Float(g) => assert_eq!(f.to_bits(), g.to_bits()),
                other => panic!("expected float, got {other:?}"),
            }
        }
        // NaN keeps its exact payload bits too.
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let bytes = encode_value(&Value::Float(nan));
        match decode_value(&bytes).unwrap() {
            Value::Float(g) => assert_eq!(nan.to_bits(), g.to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_encoding() {
        assert_eq!(encode_value(&sample_tree()), encode_value(&sample_tree()));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = encode_value(&Value::Bool(true));
        bytes.push(0);
        assert!(decode_value(&bytes).is_err());
    }

    #[test]
    fn rejects_unknown_tag() {
        assert!(decode_value(&[0xEE]).is_err());
    }

    #[test]
    fn rejects_deep_nesting() {
        // 100 nested single-element Seqs exceed MAX_DEPTH.
        let mut bytes = Vec::new();
        for _ in 0..100 {
            bytes.push(0x06);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(0x00);
        assert!(decode_value(&bytes).is_err());
    }

    #[test]
    fn corrupt_bytes_never_panic() {
        let bytes = encode_value(&sample_tree());
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= mask;
                let _ = decode_value(&corrupt);
            }
        }
    }
}

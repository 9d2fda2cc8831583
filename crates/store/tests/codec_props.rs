//! Property tests of the binary `Value` codec on trees holding packed
//! numeric columns: every tree round-trips bit-exactly (NaN payloads
//! included), and no truncation or byte flip of an encoding panics the
//! decoder.

use predict_store::{decode_value, encode_value};
use proptest::prelude::*;
use serde::Value;

/// SplitMix64: a tiny deterministic generator, so one drawn seed expands
/// into a whole random tree.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A float bit pattern, often a NaN with a random payload.
    fn f64_bits(&mut self) -> f64 {
        match self.below(4) {
            0 => f64::from_bits(0x7FF0_0000_0000_0000 | (self.next() >> 12) | 1),
            1 => [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY][self.below(4) as usize],
            _ => f64::from_bits(self.next()),
        }
    }

    fn f32_bits(&mut self) -> f32 {
        match self.below(4) {
            0 => f32::from_bits(0x7F80_0000 | (self.next() as u32 >> 9) | 1),
            _ => f32::from_bits(self.next() as u32),
        }
    }

    fn column_len(&mut self) -> usize {
        self.below(40) as usize
    }

    fn tree(&mut self, depth: u32) -> Value {
        let kinds = if depth == 0 { 10 } else { 12 };
        match self.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(self.below(2) == 1),
            2 => Value::Int(self.next() as i64),
            3 => Value::UInt(self.next()),
            4 => Value::Float(self.f64_bits()),
            5 => Value::Str(format!("s{}", self.below(1000))),
            6 => Value::U32s((0..self.column_len()).map(|_| self.next() as u32).collect()),
            7 => Value::U64s((0..self.column_len()).map(|_| self.next()).collect()),
            8 => Value::F32s((0..self.column_len()).map(|_| self.f32_bits()).collect()),
            9 => Value::F64s((0..self.column_len()).map(|_| self.f64_bits()).collect()),
            10 => Value::Seq((0..self.below(5)).map(|_| self.tree(depth - 1)).collect()),
            _ => Value::Map(
                (0..self.below(5))
                    .map(|i| (format!("k{i}"), self.tree(depth - 1)))
                    .collect(),
            ),
        }
    }
}

/// Structural equality with floats compared by bit pattern, so NaN
/// payloads count and a column never matches its element-wise `Seq`.
fn bit_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::F32s(x), Value::F32s(y)) => x
            .iter()
            .map(|f| f.to_bits())
            .eq(y.iter().map(|f| f.to_bits())),
        (Value::F64s(x), Value::F64s(y)) => x
            .iter()
            .map(|f| f.to_bits())
            .eq(y.iter().map(|f| f.to_bits())),
        (Value::Seq(x), Value::Seq(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| bit_identical(a, b))
        }
        (Value::Map(x), Value::Map(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, a), (kb, b))| ka == kb && bit_identical(a, b))
        }
        (Value::Null, Value::Null)
        | (Value::Bool(_), Value::Bool(_))
        | (Value::Int(_), Value::Int(_))
        | (Value::UInt(_), Value::UInt(_))
        | (Value::Str(_), Value::Str(_))
        | (Value::U32s(_), Value::U32s(_))
        | (Value::U64s(_), Value::U64s(_)) => a == b,
        _ => false,
    }
}

proptest! {
    #[test]
    fn trees_with_columns_roundtrip_bit_exactly(seed in any::<u32>()) {
        let tree = Gen(seed as u64).tree(3);
        let bytes = encode_value(&tree);
        let back = decode_value(&bytes).expect("a fresh encoding decodes");
        prop_assert!(bit_identical(&tree, &back), "{tree:?} came back as {back:?}");
        prop_assert_eq!(encode_value(&back), bytes);
    }

    #[test]
    fn truncated_or_flipped_encodings_never_panic(seed in any::<u32>()) {
        let tree = Value::Map(vec![
            ("targets".to_string(), Value::U32s((0..9).map(|i| i * 7).collect())),
            ("offsets".to_string(), Value::U64s(vec![0, 3, 9])),
            ("weights".to_string(), Value::F32s(vec![0.5, f32::NAN])),
            ("profile".to_string(), Value::F64s(vec![1.5, -0.0])),
            ("rest".to_string(), Gen(seed as u64).tree(2)),
        ]);
        let bytes = encode_value(&tree);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_value(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix decoded"
            );
        }
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= mask;
                let _ = decode_value(&corrupt);
            }
        }
    }
}

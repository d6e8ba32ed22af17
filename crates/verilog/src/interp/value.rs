//! Two-state bit-vector values.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A two-state bit vector of up to 64 bits.
///
/// Values are always stored masked to their width, so equality and hashing
/// behave the way hardware comparison does.
///
/// # Example
///
/// ```
/// use verilog::interp::Value;
///
/// let v = Value::new(0x1_FF, 8); // masked to 8 bits
/// assert_eq!(v.bits(), 0xFF);
/// assert_eq!(v.width(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Value {
    bits: u64,
    width: u32,
}

impl Value {
    /// Maximum supported width in bits.
    pub const MAX_WIDTH: u32 = 64;

    /// Creates a value, masking `bits` to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`Value::MAX_WIDTH`].
    pub fn new(bits: u64, width: u32) -> Self {
        assert!(width > 0, "value width must be positive");
        assert!(
            width <= Self::MAX_WIDTH,
            "value width {width} exceeds the supported maximum of 64"
        );
        Self {
            bits: bits & Self::mask(width),
            width,
        }
    }

    /// A single-bit value from a boolean.
    pub fn bit(b: bool) -> Self {
        Self::new(u64::from(b), 1)
    }

    /// A zero value of the given width.
    pub fn zero(width: u32) -> Self {
        Self::new(0, width)
    }

    /// The bit mask for `width` bits.
    pub fn mask(width: u32) -> u64 {
        if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        }
    }

    /// The raw bits (already masked to the width).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// The width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Whether any bit is set (Verilog truthiness).
    pub fn is_true(&self) -> bool {
        self.bits != 0
    }

    /// Returns the value reinterpreted at a new width (truncating or
    /// zero-extending).
    pub fn resize(&self, width: u32) -> Self {
        Self::new(self.bits, width)
    }

    /// Returns the value sign-extended from its own width to `width` bits.
    pub fn sign_extend(&self, width: u32) -> Self {
        assert!(width >= self.width, "cannot sign-extend to a smaller width");
        let sign_bit = (self.bits >> (self.width - 1)) & 1;
        if sign_bit == 0 {
            return self.resize(width);
        }
        let extension = Self::mask(width) & !Self::mask(self.width);
        Self::new(self.bits | extension, width)
    }

    /// Extracts bit `index` (0 = LSB) as a 1-bit value; bits beyond the width
    /// read as zero.
    pub fn select_bit(&self, index: u32) -> Self {
        if index >= self.width {
            Value::bit(false)
        } else {
            Value::bit((self.bits >> index) & 1 == 1)
        }
    }

    /// Extracts the slice `[msb:lsb]` as a new value; bits beyond the width
    /// read as zero, as in [`Value::select_bit`].
    ///
    /// # Panics
    ///
    /// Panics if `msb < lsb` or the slice is wider than [`Value::MAX_WIDTH`].
    pub fn select_range(&self, msb: u32, lsb: u32) -> Self {
        let width = slice_width(msb, lsb);
        Value::new(self.bits.checked_shr(lsb).unwrap_or(0), width)
    }

    /// Returns a copy of `self` with bit `index` set to the LSB of `bit`.
    pub fn with_bit(&self, index: u32, bit: Value) -> Self {
        if index >= self.width {
            return *self;
        }
        let cleared = self.bits & !(1u64 << index);
        Value::new(cleared | ((bit.bits & 1) << index), self.width)
    }

    /// Returns a copy of `self` with the slice `[msb:lsb]` replaced by
    /// `value` (truncated or zero-extended to the slice width). Writes to
    /// bits beyond the width are dropped, as in [`Value::with_bit`].
    ///
    /// # Panics
    ///
    /// Panics if `msb < lsb` or the slice is wider than [`Value::MAX_WIDTH`].
    pub fn with_range(&self, msb: u32, lsb: u32, value: Value) -> Self {
        let width = slice_width(msb, lsb);
        let slice_mask = Self::mask(width).checked_shl(lsb).unwrap_or(0);
        let slice_bits = (value.bits & Self::mask(width))
            .checked_shl(lsb)
            .unwrap_or(0);
        Value::new((self.bits & !slice_mask) | slice_bits, self.width)
    }

    /// Concatenates `self` (more significant) with `low` (less significant).
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds [`Value::MAX_WIDTH`].
    pub fn concat(&self, low: Value) -> Self {
        let width = self.width + low.width;
        assert!(
            width <= Self::MAX_WIDTH,
            "concatenation width {width} exceeds the supported maximum of 64"
        );
        Value::new((self.bits << low.width) | low.bits, width)
    }

    /// Interprets the value as a signed integer.
    pub fn as_signed(&self) -> i64 {
        let sign_bit = 1u64 << (self.width - 1);
        if self.width < 64 && self.bits & sign_bit != 0 {
            (self.bits | !Self::mask(self.width)) as i64
        } else {
            self.bits as i64
        }
    }
}

/// The width of the part-select `[msb:lsb]`.
///
/// # Panics
///
/// Panics if `msb < lsb` or the slice is wider than [`Value::MAX_WIDTH`].
fn slice_width(msb: u32, lsb: u32) -> u32 {
    assert!(msb >= lsb, "part-select bounds reversed: [{msb}:{lsb}]");
    match (msb - lsb).checked_add(1) {
        Some(width) if width <= Value::MAX_WIDTH => width,
        _ => panic!("part-select [{msb}:{lsb}] exceeds the supported maximum of 64 bits"),
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{:x}", self.width, self.bits)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::bit(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_masks_to_width() {
        assert_eq!(Value::new(0xABCD, 8).bits(), 0xCD);
        assert_eq!(Value::new(u64::MAX, 64).bits(), u64::MAX);
        assert_eq!(Value::zero(5).bits(), 0);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let _ = Value::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn oversized_width_rejected() {
        let _ = Value::new(1, 65);
    }

    #[test]
    fn truthiness_and_bit_conversion() {
        assert!(Value::new(2, 4).is_true());
        assert!(!Value::zero(4).is_true());
        assert_eq!(Value::from(true), Value::bit(true));
    }

    #[test]
    fn resize_and_sign_extend() {
        let v = Value::new(0b1010, 4);
        assert_eq!(v.resize(2).bits(), 0b10);
        assert_eq!(v.resize(8).bits(), 0b1010);
        assert_eq!(v.sign_extend(8).bits(), 0b1111_1010);
        assert_eq!(Value::new(0b0010, 4).sign_extend(8).bits(), 0b0000_0010);
    }

    #[test]
    fn bit_and_range_selection() {
        let v = Value::new(0b1100_1010, 8);
        assert_eq!(v.select_bit(1).bits(), 1);
        assert_eq!(v.select_bit(0).bits(), 0);
        assert_eq!(v.select_bit(20).bits(), 0, "out of range reads zero");
        assert_eq!(v.select_range(7, 4).bits(), 0b1100);
        assert_eq!(v.select_range(3, 0).bits(), 0b1010);
    }

    #[test]
    fn bit_and_range_update() {
        let v = Value::zero(8);
        let v = v.with_bit(3, Value::bit(true));
        assert_eq!(v.bits(), 0b1000);
        let v = v.with_range(7, 4, Value::new(0b1111, 4));
        assert_eq!(v.bits(), 0b1111_1000);
        // Out-of-range bit updates are ignored.
        assert_eq!(v.with_bit(30, Value::bit(true)), v);
    }

    #[test]
    fn out_of_range_part_selects_read_zero_and_drop_writes() {
        let v = Value::new(0xAB, 8);
        assert_eq!(v.select_range(70, 66), Value::zero(5));
        assert_eq!(v.select_range(11, 4), Value::new(0xA, 8));
        assert_eq!(v.with_range(70, 66, Value::new(0x1F, 5)), v);
        assert_eq!(
            v.with_range(11, 4, Value::new(0x5F, 8)),
            Value::new(0xFB, 8)
        );
        let ones = Value::new(u64::MAX, 64);
        assert_eq!(ones.select_range(127, 64), Value::zero(64));
        assert_eq!(ones.with_range(127, 64, Value::zero(64)), ones);
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn overwide_part_select_rejected() {
        let _ = Value::new(1, 8).select_range(u32::MAX, 0);
    }

    #[test]
    fn concatenation_orders_msb_first() {
        let hi = Value::new(0b10, 2);
        let lo = Value::new(0b01, 2);
        let c = hi.concat(lo);
        assert_eq!(c.width(), 4);
        assert_eq!(c.bits(), 0b1001);
    }

    #[test]
    fn signed_interpretation() {
        assert_eq!(Value::new(0b1111, 4).as_signed(), -1);
        assert_eq!(Value::new(0b0111, 4).as_signed(), 7);
        assert_eq!(Value::new(u64::MAX, 64).as_signed(), -1);
    }

    #[test]
    fn display_uses_verilog_style() {
        assert_eq!(format!("{}", Value::new(255, 8)), "8'hff");
    }
}

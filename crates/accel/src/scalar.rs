//! Floating-point scalar abstraction.
//!
//! The paper's C++ implementation templates every kernel on `T_data` so the
//! same solver runs in single or double precision. [`Scalar`] plays that
//! role here: all kernels, fields and solvers are generic over it, and the
//! crate provides implementations for [`f32`] and [`f64`].

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real scalar type usable in device kernels.
///
/// The bounds are the minimal set needed by the Bi-CGSTAB and Chebyshev
/// kernels: ring/field arithmetic, comparison, and conversion to/from `f64`
/// for host-side coefficient computation (the paper computes `alpha`,
/// `beta`, `omega` and `rho` on the CPU in full precision).
pub trait Scalar:
    Copy
    + Send
    + Sync
    + PartialOrd
    + PartialEq
    + Debug
    + Display
    + Default
    + Sum
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon of the representation.
    const EPSILON: Self;
    /// Number of bytes of one element (used for traffic accounting).
    const BYTES: usize;

    /// Lossy conversion from `f64` (rounds to nearest for `f32`).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Conversion from a `usize` grid count.
    fn from_usize(v: usize) -> Self {
        Self::from_f64(v as f64)
    }
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Fused multiply-add `self * a + b` (maps to the hardware FMA).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Maximum of two values (NaN-propagating like `f64::max` is not
    /// required; ties resolve to either argument).
    fn max(self, other: Self) -> Self;
    /// Minimum of two values.
    fn min(self, other: Self) -> Self;
    /// `true` if the value is finite (not NaN or infinite).
    fn is_finite(self) -> bool;

    /// The IEEE-754 bit pattern, zero-extended to 64 bits. The halo
    /// exchange packs elements narrower than its wire word into wire
    /// words with it, so the words are bit carriers — moved, never
    /// computed on — and round-trips are bit-exact.
    fn to_bits64(self) -> u64;
    /// Inverse of [`Scalar::to_bits64`]: only the low `8 · BYTES` bits
    /// are read.
    fn from_bits64(bits: u64) -> Self;
}

macro_rules! impl_scalar {
    ($t:ty, $bits:ty) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;
            const BYTES: usize = std::mem::size_of::<$t>();

            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn to_bits64(self) -> u64 {
                u64::from(<$t>::to_bits(self))
            }
            #[inline(always)]
            fn from_bits64(bits: u64) -> Self {
                <$t>::from_bits(bits as $bits)
            }
        }
    };
}

impl_scalar!(f32, u32);
impl_scalar!(f64, u64);

/// Element-wise addition of fixed-size reduction partials.
///
/// Back-ends combine per-row / per-block partial sums with this helper so
/// every reduction policy shares one combination primitive.
#[inline(always)]
pub fn add_partials<T: Scalar, const NR: usize>(a: [T; NR], b: [T; NR]) -> [T; NR] {
    let mut out = a;
    for (o, x) in out.iter_mut().zip(b) {
        *o += x;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_roundtrip() {
        assert_eq!(f64::ZERO, 0.0);
        assert_eq!(f64::ONE, 1.0);
        assert_eq!(f32::BYTES, 4);
        assert_eq!(f64::BYTES, 8);
    }

    #[test]
    fn conversions() {
        assert_eq!(f32::from_f64(1.5), 1.5f32);
        assert_eq!(2.5f64.to_f64(), 2.5);
        assert_eq!(f64::from_usize(7), 7.0);
    }

    #[test]
    fn arithmetic_helpers() {
        assert_eq!((-3.0f64).abs(), 3.0);
        assert_eq!(4.0f64.sqrt(), 2.0);
        assert_eq!(2.0f64.mul_add(3.0, 1.0), 7.0);
        assert_eq!(Scalar::max(1.0f64, 2.0), 2.0);
        assert_eq!(Scalar::min(1.0f64, 2.0), 1.0);
        assert!(1.0f64.is_finite());
        assert!(!(f64::NAN).is_finite());
    }

    #[test]
    fn add_partials_elementwise() {
        let a = [1.0f64, 2.0];
        let b = [10.0f64, 20.0];
        assert_eq!(add_partials(a, b), [11.0, 22.0]);
    }

    #[test]
    fn bit_patterns_roundtrip_through_64_bits() {
        // NaN payload bits and signed zero exercise bit preservation
        // (not value equality); f32 patterns stay in the low half.
        for v in [1.5f32, -0.0, f32::from_bits(0x7fc0_dead), 3.25e-38] {
            assert_eq!(v.to_bits64() >> 32, 0);
            assert_eq!(f32::from_bits64(v.to_bits64()).to_bits(), v.to_bits());
        }
        for v in [1.5f64, -0.0, f64::from_bits(0x7ff8_0000_dead_beef)] {
            assert_eq!(f64::from_bits64(v.to_bits64()).to_bits(), v.to_bits());
        }
        // only the low 32 bits count for f32
        assert_eq!(f32::from_bits64(0xffff_ffff_3fc0_0000), 1.5);
    }

    #[test]
    fn add_partials_empty() {
        let a: [f64; 0] = [];
        assert_eq!(add_partials(a, []), []);
    }
}

//! Per-warp lane-vector values.
//!
//! Every scalar the interpreter manipulates is 32 raw lane words plus a type
//! tag: `f32` lanes hold their bit patterns, `i32` lanes their two's
//! complement, `Bool` lanes 0 or 1. Operations compute only the lanes in
//! the active mask and leave 0 in the others, so that, e.g., an integer
//! division in a branch not taken by some lanes cannot fault.

use np_kernel_ir::expr::{BinOp, UnOp};
use np_kernel_ir::types::Scalar;

/// Number of lanes.
pub const LANES: usize = 32;

/// Lane mask; bit `i` = lane `i` active.
pub type Mask = u32;

/// Full mask.
pub const FULL_MASK: Mask = u32::MAX;

/// One warp-wide value's raw lane words.
pub type Lanes = [u32; LANES];

/// A lane operation the kernel had no right to perform. Carried up to the
/// interpreter, which wraps it into a typed `SimFault` with warp context.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueError {
    /// True for type errors (operator on wrong types, non-Bool condition);
    /// false for dynamically invalid operations (division by zero).
    pub ill_typed: bool,
    /// Faulting lane, when attributable to one lane.
    pub lane: Option<usize>,
    pub msg: String,
}

fn ill_typed(msg: String) -> ValueError {
    ValueError { ill_typed: true, lane: None, msg }
}

/// Iterate over the set lanes of a mask, lowest first.
pub fn lanes(mut mask: Mask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

/// All-ones in the active lanes, zero elsewhere.
#[inline]
fn lane_fill(mask: Mask) -> Lanes {
    std::array::from_fn(|l| 0u32.wrapping_sub((mask >> l) & 1))
}

/// `a` in the lanes of `mask`, `b` elsewhere.
#[inline]
pub fn blend(mask: Mask, a: &Lanes, b: &Lanes) -> Lanes {
    if mask == FULL_MASK {
        return *a;
    }
    let m = lane_fill(mask);
    std::array::from_fn(|l| (a[l] & m[l]) | (b[l] & !m[l]))
}

/// Lanes of a `Bool` value that are true, intersected with `mask`.
#[inline]
pub fn bool_mask(a: &Lanes, mask: Mask) -> Mask {
    a.iter().enumerate().fold(0, |m, (l, &x)| m | ((x != 0) as u32) << l) & mask
}

// Every lane is computed (the operations cannot panic) and inactive lanes
// are then cleared, which lets the compiler vectorize the loop.
#[inline]
fn map1(a: &Lanes, mask: Mask, f: impl Fn(u32) -> u32) -> Lanes {
    let r = std::array::from_fn(|l| f(a[l]));
    blend(mask, &r, &[0; LANES])
}

#[inline]
fn map2(a: &Lanes, b: &Lanes, mask: Mask, f: impl Fn(u32, u32) -> u32) -> Lanes {
    let r = std::array::from_fn(|l| f(a[l], b[l]));
    blend(mask, &r, &[0; LANES])
}

/// Integer division-like operations: only active lanes run, and the first
/// active lane (in lane order) with a zero divisor faults.
fn checked(
    a: &Lanes,
    b: &Lanes,
    mask: Mask,
    what: &str,
    f: impl Fn(u32, u32) -> u32,
) -> Result<Lanes, ValueError> {
    let mut r = [0; LANES];
    for l in lanes(mask) {
        if b[l] == 0 {
            return Err(ValueError {
                ill_typed: false,
                lane: Some(l),
                msg: format!("integer {what} by zero"),
            });
        }
        r[l] = f(a[l], b[l]);
    }
    Ok(r)
}

fn compare<T: PartialOrd>(
    op: BinOp,
    a: &Lanes,
    b: &Lanes,
    mask: Mask,
    v: impl Fn(u32) -> T + Copy,
) -> Lanes {
    match op {
        BinOp::Lt => map2(a, b, mask, |x, y| (v(x) < v(y)) as u32),
        BinOp::Le => map2(a, b, mask, |x, y| (v(x) <= v(y)) as u32),
        BinOp::Gt => map2(a, b, mask, |x, y| (v(x) > v(y)) as u32),
        BinOp::Ge => map2(a, b, mask, |x, y| (v(x) >= v(y)) as u32),
        BinOp::Eq => map2(a, b, mask, |x, y| (v(x) == v(y)) as u32),
        _ => map2(a, b, mask, |x, y| (v(x) != v(y)) as u32),
    }
}

fn float(a: &Lanes, b: &Lanes, mask: Mask, f: impl Fn(f32, f32) -> f32) -> Lanes {
    map2(a, b, mask, |x, y| f(f32::from_bits(x), f32::from_bits(y)).to_bits())
}

fn undefined(op: impl std::fmt::Debug, ty: Scalar) -> ValueError {
    ill_typed(format!("operator {op:?} not defined on {}", format!("{ty:?}").to_lowercase()))
}

/// Apply a binary operator lane-wise under `mask` into `out`; returns the
/// result type.
pub fn binary(
    op: BinOp,
    (ta, a): (Scalar, &Lanes),
    (tb, b): (Scalar, &Lanes),
    mask: Mask,
    out: &mut Lanes,
) -> Result<Scalar, ValueError> {
    use BinOp::*;
    use Scalar::*;
    if ta != tb {
        return Err(ill_typed(format!(
            "type mismatch in binary {op:?}: {ta:?} vs {tb:?} (insert an explicit Cast)"
        )));
    }
    let i = |x: u32| x as i32;
    *out = match (ta, op) {
        (F32 | I32 | U32, Lt | Le | Gt | Ge | Eq | Ne) => {
            *out = match ta {
                F32 => compare(op, a, b, mask, f32::from_bits),
                I32 => compare(op, a, b, mask, i),
                _ => compare(op, a, b, mask, |x| x),
            };
            return Ok(Bool);
        }
        (F32, Add) => float(a, b, mask, |x, y| x + y),
        (F32, Sub) => float(a, b, mask, |x, y| x - y),
        (F32, Mul) => float(a, b, mask, |x, y| x * y),
        (F32, Div) => float(a, b, mask, |x, y| x / y),
        (F32, Rem) => float(a, b, mask, |x, y| x % y),
        (F32, Min) => float(a, b, mask, f32::min),
        (F32, Max) => float(a, b, mask, f32::max),
        (I32 | U32, Add) => map2(a, b, mask, u32::wrapping_add),
        (I32 | U32, Sub) => map2(a, b, mask, u32::wrapping_sub),
        (I32 | U32, Mul) => map2(a, b, mask, u32::wrapping_mul),
        (I32 | U32, And) | (Bool, And | LAnd) => map2(a, b, mask, |x, y| x & y),
        (I32 | U32, Or) | (Bool, Or | LOr) => map2(a, b, mask, |x, y| x | y),
        (I32 | U32 | Bool, Xor) | (Bool, Ne) => map2(a, b, mask, |x, y| x ^ y),
        (Bool, Eq) => map2(a, b, mask, |x, y| (x == y) as u32),
        (I32 | U32, Shl) => map2(a, b, mask, u32::wrapping_shl),
        (I32, Shr) => map2(a, b, mask, |x, y| i(x).wrapping_shr(y) as u32),
        (U32, Shr) => map2(a, b, mask, u32::wrapping_shr),
        (I32, Min) => map2(a, b, mask, |x, y| i(x).min(i(y)) as u32),
        (I32, Max) => map2(a, b, mask, |x, y| i(x).max(i(y)) as u32),
        (U32, Min) => map2(a, b, mask, u32::min),
        (U32, Max) => map2(a, b, mask, u32::max),
        (I32, Div) => checked(a, b, mask, "division", |x, y| i(x).wrapping_div(i(y)) as u32)?,
        (I32, Rem) => checked(a, b, mask, "remainder", |x, y| i(x).wrapping_rem(i(y)) as u32)?,
        (U32, Div) => checked(a, b, mask, "division", |x, y| x / y)?,
        (U32, Rem) => checked(a, b, mask, "remainder", |x, y| x % y)?,
        (ty, op) => return Err(undefined(op, ty)),
    };
    Ok(ta)
}

/// Apply a unary operator lane-wise under `mask` into `out`.
pub fn unary(
    op: UnOp,
    ta: Scalar,
    a: &Lanes,
    mask: Mask,
    out: &mut Lanes,
) -> Result<(), ValueError> {
    use Scalar::*;
    use UnOp::*;
    let float = |f: fn(f32) -> f32| map1(a, mask, |x| f(f32::from_bits(x)).to_bits());
    *out = match (ta, op) {
        (F32, Neg) => float(|x| -x),
        (F32, Sqrt) => float(f32::sqrt),
        (F32, Exp) => float(f32::exp),
        (F32, Log) => float(f32::ln),
        (F32, Sin) => float(f32::sin),
        (F32, Cos) => float(f32::cos),
        (F32, Abs) => float(f32::abs),
        (F32, Floor) => float(f32::floor),
        (F32, Not) => return Err(ill_typed("logical not on f32".to_string())),
        (I32, Neg) => map1(a, mask, |x| (x as i32).wrapping_neg() as u32),
        (I32, Abs) => map1(a, mask, |x| (x as i32).wrapping_abs() as u32),
        (Bool, Not) => map1(a, mask, |x| x ^ 1),
        (ty, op) => return Err(undefined(op, ty)),
    };
    Ok(())
}

/// Lane-wise cast under `mask`.
pub fn cast(from: Scalar, a: &Lanes, to: Scalar, mask: Mask) -> Lanes {
    use Scalar::*;
    match (from, to) {
        (F32, I32) => map1(a, mask, |x| f32::from_bits(x) as i32 as u32),
        (F32, U32) => map1(a, mask, |x| f32::from_bits(x) as u32),
        (I32, F32) => map1(a, mask, |x| (x as i32 as f32).to_bits()),
        (U32 | Bool, F32) => map1(a, mask, |x| (x as f32).to_bits()),
        (_, Bool) => map1(a, mask, |x| (x != 0) as u32),
        // Same width, same bits: i32 <-> u32, bool -> integer, identity.
        _ => map1(a, mask, |x| x),
    }
}

/// Bitmask of lanes whose `Bool` value is true, intersected with `mask`.
pub fn true_mask(ty: Scalar, a: &Lanes, mask: Mask) -> Result<Mask, ValueError> {
    if ty != Scalar::Bool {
        return Err(ill_typed(format!("condition must be Bool, found {ty:?}")));
    }
    Ok(bool_mask(a, mask))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splat(x: u32) -> Lanes {
        [x; LANES]
    }

    /// `x op y` on splats of one type, every lane active.
    fn bin(op: BinOp, ty: Scalar, x: u32, y: u32) -> Result<(Scalar, Lanes), ValueError> {
        let mut r = [0; LANES];
        binary(op, (ty, &splat(x)), (ty, &splat(y)), FULL_MASK, &mut r).map(|t| (t, r))
    }

    #[test]
    fn masked_division_does_not_fault() {
        let a = splat(10);
        let mut b = splat(2);
        b[5] = 0; // lane 5 would divide by zero
        let mask = FULL_MASK & !(1 << 5);
        let mut r = [0; LANES];
        let ty = binary(BinOp::Div, (Scalar::I32, &a), (Scalar::I32, &b), mask, &mut r).unwrap();
        assert_eq!(ty, Scalar::I32);
        assert_eq!(r[0], 5);
        assert_eq!(r[5], 0, "inactive lane stays default");
    }

    #[test]
    fn active_division_by_zero_faults() {
        let err = bin(BinOp::Div, Scalar::I32, 1, 0).unwrap_err();
        assert!(!err.ill_typed);
        assert_eq!(err.lane, Some(0));
        assert!(err.msg.contains("division by zero"), "{:?}", err.msg);
    }

    #[test]
    fn inactive_lanes_are_cleared() {
        let mut r = [0; LANES];
        let i32 = Scalar::I32;
        binary(BinOp::Add, (i32, &splat(1)), (i32, &splat(2)), 0b1010, &mut r).unwrap();
        assert_eq!(&r[..4], &[0, 3, 0, 3]);
        assert_eq!(blend(0b10, &splat(7), &r)[..3], [0, 7, 0]);
    }

    #[test]
    fn comparisons_yield_bool() {
        let (ty, r) = bin(BinOp::Lt, Scalar::I32, 3, 4).unwrap();
        assert_eq!(ty, Scalar::Bool);
        assert_eq!(true_mask(ty, &r, FULL_MASK).unwrap(), FULL_MASK);
        let neg = (-1i32) as u32;
        assert_eq!(bin(BinOp::Lt, Scalar::I32, neg, 0).unwrap().1[0], 1, "i32 compares signed");
        assert_eq!(bin(BinOp::Lt, Scalar::U32, neg, 0).unwrap().1[0], 0, "u32 compares unsigned");
    }

    #[test]
    fn mixed_types_are_ill_typed() {
        let mut r = [0; LANES];
        let err = binary(
            BinOp::Add,
            (Scalar::I32, &splat(3)),
            (Scalar::F32, &splat(0)),
            FULL_MASK,
            &mut r,
        )
        .unwrap_err();
        assert!(err.ill_typed);
        assert_eq!(err.msg, "type mismatch in binary Add: I32 vs F32 (insert an explicit Cast)");
    }

    #[test]
    fn casts_round_trip_bits() {
        let i = cast(Scalar::F32, &splat(3.75f32.to_bits()), Scalar::I32, FULL_MASK);
        assert_eq!(i[0], 3);
        let f = cast(Scalar::I32, &splat((-2i32) as u32), Scalar::F32, FULL_MASK);
        assert_eq!(f32::from_bits(f[0]), -2.0);
        let b = cast(Scalar::F32, &splat((-0.0f32).to_bits()), Scalar::Bool, FULL_MASK);
        assert_eq!(b[0], 1, "a nonzero bit pattern is true");
    }

    #[test]
    fn true_mask_filters() {
        let mut c = splat(1);
        c[1] = 0;
        assert_eq!(true_mask(Scalar::Bool, &c, 0b111).unwrap(), 0b101);
    }

    #[test]
    fn non_bool_condition_is_ill_typed() {
        let err = true_mask(Scalar::I32, &splat(1), FULL_MASK).unwrap_err();
        assert!(err.ill_typed);
    }

    #[test]
    fn lanes_iterates_set_bits_in_order() {
        assert_eq!(lanes(0b1001_0110).collect::<Vec<_>>(), vec![1, 2, 4, 7]);
        assert_eq!(lanes(FULL_MASK).count(), LANES);
    }
}

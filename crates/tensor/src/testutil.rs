//! Input generators and comparators shared by the kernel tests.

use rand::rngs::StdRng;
use rand::Rng;

/// `len` small deterministic pseudo-random values in `[-1, 1)`.
pub(crate) fn fill(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) as f32 / (1u32 << 23) as f32 - 1.0
        })
        .collect()
}

/// A value the kernels or the quantizer have special rules for (NaN, ±inf,
/// signed zeros, `f32::MAX`, subnormals, huge magnitudes) or an ordinary one.
pub(crate) fn hostile_value(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0u32..10) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => f32::MAX,
        6 => f32::from_bits(rng.gen_range(1u32..64)), // subnormal
        7 => rng.gen_range(-1.0e30f32..1.0e30),
        _ => rng.gen_range(-4.0f32..4.0),
    }
}

/// Bit patterns with every NaN collapsed to one: payloads follow operand
/// order, which IEEE and the compiler leave open.
pub(crate) fn bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
        .collect()
}

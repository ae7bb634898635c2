//! Property tests for the quantization round-trip bound that the
//! compiled executor's accuracy contract rests on: int8 per-column
//! quantization reconstructs every element within `scale/2` (the
//! symmetric rounding bound — no clamping error is possible because the
//! scale is derived from the column max).

use paragraph_tensor::quant::{max_abs, quantize_i8};
use paragraph_tensor::QuantMatrix;
use proptest::collection;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Weight-tensor round-trip: every element of a random matrix comes
    /// back within half the per-column scale.
    #[test]
    fn int8_weight_roundtrip_bounded_by_half_scale(
        vals in collection::vec(-50.0_f32..50.0, 1..96),
        cols in 1_usize..8,
    ) {
        let cols = cols.min(vals.len());
        let rows = vals.len() / cols;
        let data = &vals[..rows * cols];
        let q = QuantMatrix::quantize(data, rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let err = (q.get(i, j) - data[i * cols + j]).abs();
                let bound = q.scales()[j] * 0.5 * (1.0 + 1e-5);
                prop_assert!(
                    err <= bound,
                    "element ({}, {}): error {} exceeds scale/2 {}",
                    i, j, err, bound
                );
            }
        }
    }

    /// Activation round-trip at an explicit max-abs scale: dequantized
    /// values land within `scale/2` for in-range inputs.
    #[test]
    fn int8_activation_roundtrip_bounded_by_half_scale(
        vals in collection::vec(-1000.0_f32..1000.0, 1..64),
    ) {
        let scale = max_abs(&vals) / 127.0;
        let mut q = vec![0_i8; vals.len()];
        quantize_i8(&vals, scale, &mut q);
        for (&qi, &v) in q.iter().zip(vals.iter()) {
            let err = (qi as f32 * scale - v).abs();
            prop_assert!(
                err <= scale * 0.5 * (1.0 + 1e-5) || scale == 0.0,
                "activation {}: error {} exceeds scale/2 {}",
                v, err, scale * 0.5
            );
        }
    }
}

/// Pinned edge case: zero-scale (all-zero input) quantization
/// round-trips exactly.
#[test]
fn pinned_extreme_values() {
    let q = QuantMatrix::quantize(&[0.0; 6], 3, 2);
    for i in 0..3 {
        for j in 0..2 {
            assert_eq!(q.get(i, j), 0.0);
        }
    }
}

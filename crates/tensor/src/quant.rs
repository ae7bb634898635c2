//! Quantized weight storage for low-precision inference.
//!
//! The compiled executor (`paragraph-exec`) can trade the tape path's
//! bitwise determinism for throughput by packing layer weights into
//! [`QuantMatrix`] at compile time: symmetric int8 with
//! **per-output-column scales** (`scale[j] = max_p |w[p][j]| / 127`),
//! packed as interleaved row-pairs of `i16` so the AVX2 `madd` kernel
//! in [`crate::kernels::matmul_q8`] multiplies two weight rows across
//! 16 lanes per instruction. Activations are quantized per call with a
//! single scale (calibrated or dynamic max-abs) and products accumulate
//! exactly in `i32`, so the integer kernel is bit-identical between its
//! scalar and SIMD paths.

/// Largest magnitude in `x` (0 for an empty slice; NaN-free inputs).
pub fn max_abs(x: &[f32]) -> f32 {
    x.iter().fold(0.0_f32, |m, &v| m.max(v.abs()))
}

/// Quantizes `x` symmetrically: `out[i] = round(x[i] / scale)` clamped
/// to `[-127, 127]`, with half-magnitudes rounding away from zero. A
/// non-positive `scale` produces all zeros (the all-zero-input case).
///
/// Rounding is computed as `trunc(t + copysign(0.5, t))` in both the
/// scalar and the AVX2 dispatch, so the two are bit-identical; this
/// runs on the hot path once per quantized matmul, and `f32::round` is
/// a libm call at the SSE2 baseline.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn quantize_i8(x: &[f32], scale: f32, out: &mut [i8]) {
    assert_eq!(x.len(), out.len(), "quantize length mismatch");
    if scale <= 0.0 {
        out.fill(0);
        return;
    }
    let inv = 1.0 / scale;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 presence checked above.
        unsafe { quantize_i8_avx2(x, inv, out) };
        return;
    }
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        let t = v * inv;
        *o = (t + 0.5_f32.copysign(t)).trunc().clamp(-127.0, 127.0) as i8;
    }
}

/// AVX2 [`quantize_i8`] inner loop: eight lanes of
/// `trunc(t + copysign(0.5, t))`, clamp, and narrowing store.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_i8_avx2(x: &[f32], inv: f32, out: &mut [i8]) {
    use std::arch::x86_64::*;
    let vinv = _mm256_set1_ps(inv);
    let sign_mask = _mm256_set1_ps(-0.0);
    let half = _mm256_set1_ps(0.5);
    let lo = _mm256_set1_ps(-127.0);
    let hi = _mm256_set1_ps(127.0);
    let n = x.len();
    let mut i = 0;
    while i + 8 <= n {
        let t = _mm256_mul_ps(_mm256_loadu_ps(x.as_ptr().add(i)), vinv);
        let signed_half = _mm256_or_ps(half, _mm256_and_ps(t, sign_mask));
        let r = _mm256_round_ps(
            _mm256_add_ps(t, signed_half),
            _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC,
        );
        let c = _mm256_max_ps(lo, _mm256_min_ps(hi, r));
        let q = _mm256_cvtps_epi32(c);
        // 8 x i32 -> 8 x i8 in the low lanes.
        let packed16 = _mm256_packs_epi32(q, q);
        let packed8 = _mm256_packs_epi16(packed16, packed16);
        let lanes = _mm256_permutevar8x32_epi32(packed8, _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0));
        let val = _mm256_extract_epi64::<0>(lanes);
        std::ptr::copy_nonoverlapping(
            val.to_le_bytes().as_ptr(),
            out.as_mut_ptr().add(i) as *mut u8,
            8,
        );
        i += 8;
    }
    for j in i..n {
        let t = x[j] * inv;
        out[j] = (t + 0.5_f32.copysign(t)).trunc().clamp(-127.0, 127.0) as i8;
    }
}

/// Symmetric int8 weight matrix with per-output-column scales, packed
/// for the widened AVX2 `madd` GEMM.
///
/// Logical shape is `rows x cols` (a `k x n` right-hand operand).
/// Storage interleaves **row pairs**: for rows `p = 2q` and `p+1`,
/// `packed[q·2n + 2j] = q(w[p][j])` and `packed[q·2n + 2j+1] =
/// q(w[p+1][j])` as `i16` (an odd final row is padded with zeros).
/// One `_mm256_madd_epi16` against a broadcast activation pair then
/// yields both rows' contributions to eight output columns at once.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    packed: Vec<i16>,
    scales: Vec<f32>,
}

impl QuantMatrix {
    /// Quantizes a row-major f32 slice (length `rows * cols`) with one
    /// symmetric scale per output column.
    ///
    /// # Panics
    ///
    /// Panics if the slice length disagrees with the shape.
    pub fn quantize(data: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "quant matrix length mismatch");
        let mut scales = vec![0.0_f32; cols];
        for row in data.chunks_exact(cols.max(1)) {
            for (s, &v) in scales.iter_mut().zip(row.iter()) {
                *s = s.max(v.abs());
            }
        }
        for s in scales.iter_mut() {
            *s /= 127.0;
        }
        let pairs = rows.div_ceil(2);
        let mut packed = vec![0_i16; pairs * 2 * cols];
        for p in 0..rows {
            for j in 0..cols {
                let s = scales[j];
                let q = if s > 0.0 {
                    (data[p * cols + j] / s).round().clamp(-127.0, 127.0) as i16
                } else {
                    0
                };
                packed[(p / 2) * 2 * cols + 2 * j + (p % 2)] = q;
            }
        }
        Self {
            rows,
            cols,
            packed,
            scales,
        }
    }

    /// Number of (logical) rows `k`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns `n`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Interleaved row-pair storage, `rows.div_ceil(2) * 2 * cols` long.
    pub fn packed(&self) -> &[i16] {
        &self.packed
    }

    /// Per-output-column dequantization scales (`max|col| / 127`).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Dequantized element `(i, j)` — for tests and error analysis.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        let q = self.packed[(i / 2) * 2 * self.cols + 2 * j + (i % 2)];
        q as f32 * self.scales[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quant_matrix_roundtrip_error_bounded_by_half_scale() {
        let data: Vec<f32> = (0..20).map(|i| (i as f32 - 10.0) * 0.37).collect();
        let q = QuantMatrix::quantize(&data, 5, 4);
        for i in 0..5 {
            for j in 0..4 {
                let err = (q.get(i, j) - data[i * 4 + j]).abs();
                assert!(
                    err <= q.scales()[j] * 0.5 + 1e-7,
                    "({i},{j}): err {err} > scale/2 {}",
                    q.scales()[j] * 0.5
                );
            }
        }
    }

    #[test]
    fn quant_matrix_pads_odd_rows_with_zero() {
        let data = [1.0_f32, -2.0, 3.0, 0.5, -0.25, 2.5];
        let q = QuantMatrix::quantize(&data, 3, 2);
        // Pair 1 holds rows 2 and the zero pad row.
        assert_eq!(q.packed().len(), 2 * 2 * 2);
        assert_eq!(q.packed()[4 + 1], 0, "odd-row pad must be zero");
        assert_eq!(q.packed()[4 + 3], 0, "odd-row pad must be zero");
    }

    #[test]
    fn quantize_i8_clamps_and_handles_zero_scale() {
        let x = [1.0_f32, -300.0, 0.4, 0.6];
        let mut out = [0_i8; 4];
        quantize_i8(&x, 1.0, &mut out);
        assert_eq!(out, [1, -127, 0, 1]);
        quantize_i8(&x, 0.0, &mut out);
        assert_eq!(out, [0, 0, 0, 0]);
    }

    #[test]
    fn zero_column_quantizes_to_zero() {
        let data = [0.0_f32, 1.0, 0.0, -2.0];
        let q = QuantMatrix::quantize(&data, 2, 2);
        assert_eq!(q.scales()[0], 0.0);
        assert_eq!(q.get(0, 0), 0.0);
        assert_eq!(q.get(1, 0), 0.0);
    }
}

//! Shared forward (inference) kernels.
//!
//! Every kernel here writes **into a caller-provided buffer** and performs
//! no allocation, so the same code serves two masters:
//!
//! * the autograd [`crate::Tape`] forward ops, which hand in freshly
//!   zeroed [`crate::Tensor`]s and record the result for the backward
//!   pass, and
//! * the tape-free compiled executor (`paragraph-exec`), which hands in
//!   preallocated arena slices reused across requests.
//!
//! Because both paths dispatch into the *same* functions — including the
//! AVX2 dense matmul path behind [`matmul`] — their outputs are
//! bit-identical by construction: there is no second implementation to
//! drift. Kernels that accumulate ([`matmul`] excepted, which zeroes its
//! output first) require the output buffer to be pre-zeroed; each doc
//! comment states the contract.
//!
//! Accumulation orders mirror the tape ops exactly: ascending edge index
//! within a destination segment, ascending `p` in dense products, and
//! the same max-subtracted segment softmax for attention. See
//! `docs/performance.md` for the bitwise-parity contract.

use crate::plan::CsrPlan;
use crate::quant::QuantMatrix;
use crate::tensor::{matmul_into, par_rows_by_work};

/// Row norms at or below this threshold pass through
/// [`row_l2_normalize`] unscaled.
pub const L2_EPS: f32 = 1e-12;

/// Euclidean norm of a row, accumulated in ascending index order.
pub fn l2(row: &[f32]) -> f32 {
    row.iter().map(|v| v * v).sum::<f32>().sqrt()
}

/// Dense product `out = a (m x k) @ b (k x n)`.
///
/// Zeroes `out` and accumulates with the same threaded, AVX2-dispatched
/// row kernels [`crate::Tensor::matmul`] uses, so results are
/// bit-identical to the tape path.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given shape.
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul lhs length mismatch");
    assert_eq!(b.len(), k * n, "matmul rhs length mismatch");
    assert_eq!(out.len(), m * n, "matmul out length mismatch");
    out.fill(0.0);
    matmul_into(a, b, out, m, k, n);
}

/// Adds a `1 x F` bias row to every row of `x` in place.
///
/// # Panics
///
/// Panics if `x.len()` is not a multiple of `bias.len()`.
pub fn add_bias(x: &mut [f32], bias: &[f32]) {
    if bias.is_empty() {
        assert!(x.is_empty(), "bias width must divide the buffer length");
        return;
    }
    assert!(
        x.len().is_multiple_of(bias.len()),
        "bias width must divide the buffer length"
    );
    for row in x.chunks_exact_mut(bias.len()) {
        for (v, &b) in row.iter_mut().zip(bias.iter()) {
            *v += b;
        }
    }
}

/// Rectified linear unit in place.
pub fn relu(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = v.max(0.0);
    }
}

/// L2-normalises each `cols`-wide row of `x` in place; rows with norm at
/// or below [`L2_EPS`] pass through.
///
/// # Panics
///
/// Panics if `x.len()` is not a multiple of `cols`.
pub fn row_l2_normalize(x: &mut [f32], cols: usize) {
    if cols == 0 {
        assert!(x.is_empty(), "column count must divide the buffer length");
        return;
    }
    assert!(
        x.len().is_multiple_of(cols),
        "column count must divide the buffer length"
    );
    for row in x.chunks_exact_mut(cols) {
        let norm = l2(row);
        if norm > L2_EPS {
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
    }
}

/// Column concatenation: `out` rows are `a`'s row followed by `b`'s row.
///
/// # Panics
///
/// Panics if the buffer lengths disagree with `rows * (fa + fb)`.
pub fn concat_cols(a: &[f32], fa: usize, b: &[f32], fb: usize, out: &mut [f32], rows: usize) {
    assert_eq!(a.len(), rows * fa, "concat lhs length mismatch");
    assert_eq!(b.len(), rows * fb, "concat rhs length mismatch");
    assert_eq!(out.len(), rows * (fa + fb), "concat out length mismatch");
    for i in 0..rows {
        let dst = &mut out[i * (fa + fb)..(i + 1) * (fa + fb)];
        dst[..fa].copy_from_slice(&a[i * fa..(i + 1) * fa]);
        dst[fa..].copy_from_slice(&b[i * fb..(i + 1) * fb]);
    }
}

/// Gathers rows: `out[e] = src[index[e]]` with `f`-wide rows.
///
/// # Panics
///
/// Panics if an index is out of range or the lengths disagree.
pub fn gather_rows(src: &[f32], f: usize, index: &[u32], out: &mut [f32]) {
    assert_eq!(out.len(), index.len() * f, "gather out length mismatch");
    let n = src.len().checked_div(f).unwrap_or(0);
    for (e, &i) in index.iter().enumerate() {
        let i = i as usize;
        assert!(i < n, "gather index {i} out of range (n = {n})");
        out[e * f..(e + 1) * f].copy_from_slice(&src[i * f..(i + 1) * f]);
    }
}

/// Scatter-add rows: `out[index[e]] += src[e]` with `f`-wide rows, in
/// ascending `e` order. `out` must be pre-zeroed (or hold a running sum).
///
/// # Panics
///
/// Panics if an index is out of range or `src` does not match `index`.
pub fn scatter_add_rows(src: &[f32], f: usize, index: &[u32], out: &mut [f32]) {
    assert_eq!(src.len(), index.len() * f, "scatter src length mismatch");
    let rows = out.len().checked_div(f).unwrap_or(0);
    for (e, &i) in index.iter().enumerate() {
        let i = i as usize;
        assert!(i < rows, "scatter index {i} out of range");
        for (o, &v) in out[i * f..(i + 1) * f]
            .iter_mut()
            .zip(src[e * f..(e + 1) * f].iter())
        {
            *o += v;
        }
    }
}

/// Fused segment-mean aggregation over a compiled [`CsrPlan`]:
/// `out[d] = (Σ_e h[src_e]) / max(deg(d), 1)`. `out` must be pre-zeroed.
///
/// Parallelises over destination rows exactly like the tape op (same
/// work estimate, same chunking), so results are bit-identical across
/// worker counts and against the tape path.
///
/// # Panics
///
/// Panics if `h` does not cover `plan.num_nodes()` rows of width `f`.
pub fn spmm_mean(h: &[f32], f: usize, plan: &CsrPlan, out: &mut [f32]) {
    let n = plan.num_nodes();
    assert_eq!(h.len(), n * f, "spmm_mean input length mismatch");
    assert_eq!(out.len(), n * f, "spmm_mean out length mismatch");
    let work = plan.num_edges().saturating_mul(f);
    par_rows_by_work(n, f, work, out, |chunk, d0, d1| {
        let offsets = plan.dst_offsets();
        let src = plan.sorted_src();
        let inv = plan.inv_in_degree();
        for d in d0..d1 {
            let row = &mut chunk[(d - d0) * f..(d - d0 + 1) * f];
            for &s in &src[offsets[d] as usize..offsets[d + 1] as usize] {
                let s = s as usize;
                for (o, &v) in row.iter_mut().zip(h[s * f..(s + 1) * f].iter()) {
                    *o += v;
                }
            }
            let w = inv[d];
            for o in row.iter_mut() {
                *o *= w;
            }
        }
    });
}

/// Fused per-edge-weighted aggregation: `out[d] = Σ_e coeff_e · h[src_e]`
/// with `coeff` in the plan's destination-sorted order. `out` must be
/// pre-zeroed.
///
/// # Panics
///
/// Panics if the lengths disagree with the plan.
pub fn spmm_norm(h: &[f32], f: usize, plan: &CsrPlan, coeff: &[f32], out: &mut [f32]) {
    let n = plan.num_nodes();
    assert_eq!(h.len(), n * f, "spmm_norm input length mismatch");
    assert_eq!(out.len(), n * f, "spmm_norm out length mismatch");
    assert_eq!(
        coeff.len(),
        plan.num_edges(),
        "spmm_norm coefficient/edge count mismatch"
    );
    let work = plan.num_edges().saturating_mul(f);
    par_rows_by_work(n, f, work, out, |chunk, d0, d1| {
        let offsets = plan.dst_offsets();
        let src = plan.sorted_src();
        for d in d0..d1 {
            let row = &mut chunk[(d - d0) * f..(d - d0 + 1) * f];
            for ei in offsets[d] as usize..offsets[d + 1] as usize {
                let w = coeff[ei];
                let s = src[ei] as usize;
                for (o, &v) in row.iter_mut().zip(h[s * f..(s + 1) * f].iter()) {
                    *o += w * v;
                }
            }
        }
    });
}

/// Per-edge attention scores and softmax weights in the plan's
/// destination-sorted order.
///
/// `z` is `N x f` row-major, `a` the `2f`-long attention vector
/// (destination half first). Fills `raw[e] = z[dst_e]·a_dst + z[src_e]·a_src`
/// (pre-activation, needed by the backward pass) and `alpha` with the
/// per-destination softmax of `leaky_relu(raw)`; `zd_dot`/`zs_dot` are
/// `N`-long scratch for the per-node score halves. All four buffers are
/// fully overwritten — no pre-zeroing needed.
///
/// # Panics
///
/// Panics if any buffer length disagrees with the plan or `f`.
#[allow(clippy::too_many_arguments)]
pub fn attend_scores(
    z: &[f32],
    f: usize,
    a: &[f32],
    plan: &CsrPlan,
    slope: f32,
    zd_dot: &mut [f32],
    zs_dot: &mut [f32],
    raw: &mut [f32],
    alpha: &mut [f32],
) {
    let n = plan.num_nodes();
    let e = plan.num_edges();
    assert_eq!(z.len(), n * f, "attend input length mismatch");
    assert_eq!(a.len(), 2 * f, "attention vector must have 2F entries");
    assert_eq!(zd_dot.len(), n, "zd_dot scratch length mismatch");
    assert_eq!(zs_dot.len(), n, "zs_dot scratch length mismatch");
    assert_eq!(raw.len(), e, "raw buffer length mismatch");
    assert_eq!(alpha.len(), e, "alpha buffer length mismatch");
    let a_dst = &a[..f];
    let a_src = &a[f..];
    // Per-node halves of the score: raw_e decomposes into
    // zd_dot[dst_e] + zs_dot[src_e], so the O(E·F) gathered dot product
    // collapses to O(N·F) + O(E).
    #[cfg(target_arch = "x86_64")]
    let done = if f > 0 && f.is_multiple_of(8) && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 presence and the lane count checked here; the
        // asserts above give `z` its `n * f` entries.
        unsafe { score_dots_by_lane_avx2(z, f, a_dst, a_src, zd_dot, zs_dot) }
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for i in done..n {
        let row = &z[i * f..(i + 1) * f];
        let mut d = 0.0_f32;
        let mut s = 0.0_f32;
        for j in 0..f {
            d += row[j] * a_dst[j];
            s += row[j] * a_src[j];
        }
        zd_dot[i] = d;
        zs_dot[i] = s;
    }
    scores_segments(plan, slope, zd_dot, zs_dot, raw, alpha);
}

/// AVX2 inner kernel for [`attend_scores`]: both per-node score halves
/// for eight rows at a time, one row per vector lane. An 8x8 transpose
/// turns each 8-column block of the group's rows into one vector per
/// column; every lane then sums `z[i][j] · a[j]` over ascending `j`,
/// starting from `+0.0`, with a separate multiply and add. That is the
/// scalar loop's arithmetic exactly, so the two are bit-identical, but
/// eight rows' add chains now advance together. Returns the number of
/// rows written (the whole groups of eight); the caller does the rest.
///
/// # Safety
///
/// AVX2 must be available, `f` a nonzero multiple of 8, both halves of
/// `a` `f` long and `z` hold `zd_dot.len() * f` entries.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn score_dots_by_lane_avx2(
    z: &[f32],
    f: usize,
    a_dst: &[f32],
    a_src: &[f32],
    zd_dot: &mut [f32],
    zs_dot: &mut [f32],
) -> usize {
    use std::arch::x86_64::*;
    let groups = zd_dot.len().min(zs_dot.len()) / 8;
    for g in 0..groups {
        let rows = z[g * 8 * f..(g + 1) * 8 * f].as_ptr();
        let mut accd = _mm256_setzero_ps();
        let mut accs = _mm256_setzero_ps();
        for j0 in (0..f).step_by(8) {
            let mut col = [_mm256_setzero_ps(); 8];
            for (l, v) in col.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(rows.add(l * f + j0));
            }
            transpose_8x8(&mut col);
            for (j, v) in col.iter().enumerate() {
                let d = _mm256_set1_ps(a_dst[j0 + j]);
                let s = _mm256_set1_ps(a_src[j0 + j]);
                accd = _mm256_add_ps(accd, _mm256_mul_ps(*v, d));
                accs = _mm256_add_ps(accs, _mm256_mul_ps(*v, s));
            }
        }
        _mm256_storeu_ps(zd_dot[g * 8..(g + 1) * 8].as_mut_ptr(), accd);
        _mm256_storeu_ps(zs_dot[g * 8..(g + 1) * 8].as_mut_ptr(), accs);
    }
    groups * 8
}

/// Transposes eight 8-lane rows in place: afterwards `r[j]` holds lane
/// `j` of every input row, in row order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn transpose_8x8(r: &mut [std::arch::x86_64::__m256; 8]) {
    use std::arch::x86_64::*;
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let s1 = _mm256_shuffle_ps::<0xee>(t0, t2);
    let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let s3 = _mm256_shuffle_ps::<0xee>(t1, t3);
    let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let s5 = _mm256_shuffle_ps::<0xee>(t4, t6);
    let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let s7 = _mm256_shuffle_ps::<0xee>(t5, t7);
    r[0] = _mm256_permute2f128_ps::<0x20>(s0, s4);
    r[1] = _mm256_permute2f128_ps::<0x20>(s1, s5);
    r[2] = _mm256_permute2f128_ps::<0x20>(s2, s6);
    r[3] = _mm256_permute2f128_ps::<0x20>(s3, s7);
    r[4] = _mm256_permute2f128_ps::<0x31>(s0, s4);
    r[5] = _mm256_permute2f128_ps::<0x31>(s1, s5);
    r[6] = _mm256_permute2f128_ps::<0x31>(s2, s6);
    r[7] = _mm256_permute2f128_ps::<0x31>(s3, s7);
}

/// The O(E) half of [`attend_scores`]: per-edge raw scores from the
/// per-node dot halves, then the per-destination-segment softmax of
/// `leaky_relu(raw)` (same max-subtraction scheme as the composed
/// `segment_softmax` op).
fn scores_segments(
    plan: &CsrPlan,
    slope: f32,
    zd_dot: &[f32],
    zs_dot: &[f32],
    raw: &mut [f32],
    alpha: &mut [f32],
) {
    for (ei, r) in raw.iter_mut().enumerate() {
        *r = zd_dot[plan.sorted_dst()[ei] as usize] + zs_dot[plan.sorted_src()[ei] as usize];
    }
    for d in 0..plan.num_nodes() {
        let seg = plan.edges_into(d);
        if seg.is_empty() {
            continue;
        }
        let mut max = f32::NEG_INFINITY;
        for ei in seg.clone() {
            let x = raw[ei];
            let s = if x >= 0.0 { x } else { slope * x };
            alpha[ei] = s;
            max = max.max(s);
        }
        let mut denom = 0.0_f32;
        for ei in seg.clone() {
            let v = (alpha[ei] - max).exp();
            alpha[ei] = v;
            denom += v;
        }
        if denom > 0.0 {
            for ei in seg {
                alpha[ei] /= denom;
            }
        }
    }
}

/// [`attend_scores`] with FMA-vectorized per-node dot products, used by
/// the executor's reduced-precision path. The 8-lane accumulators split
/// each row's dot into partial sums, so results differ from
/// [`attend_scores`] in the last ulps — inside the quantized tiers'
/// tolerance contract. The bitwise f32 path runs [`attend_scores`],
/// whose vector path gives each row its own lane and keeps the scalar
/// summation order. The segment-softmax half is shared code (it is
/// O(E) and branchy either way).
///
/// # Panics
///
/// Panics as [`attend_scores`] does.
#[allow(clippy::too_many_arguments)]
pub fn attend_scores_fast(
    z: &[f32],
    f: usize,
    a: &[f32],
    plan: &CsrPlan,
    slope: f32,
    zd_dot: &mut [f32],
    zs_dot: &mut [f32],
    raw: &mut [f32],
    alpha: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if f > 0
        && f.is_multiple_of(8)
        && std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        let n = plan.num_nodes();
        let e = plan.num_edges();
        assert_eq!(z.len(), n * f, "attend input length mismatch");
        assert_eq!(a.len(), 2 * f, "attention vector must have 2F entries");
        assert_eq!(zd_dot.len(), n, "zd_dot scratch length mismatch");
        assert_eq!(zs_dot.len(), n, "zs_dot scratch length mismatch");
        assert_eq!(raw.len(), e, "raw buffer length mismatch");
        assert_eq!(alpha.len(), e, "alpha buffer length mismatch");
        // SAFETY: AVX2 + FMA presence and the lane count checked above.
        unsafe { score_dots_avx2(z, f, &a[..f], &a[f..], zd_dot, zs_dot) };
        scores_segments(plan, slope, zd_dot, zs_dot, raw, alpha);
        return;
    }
    attend_scores(z, f, a, plan, slope, zd_dot, zs_dot, raw, alpha);
}

/// AVX2+FMA inner kernel for [`attend_scores_fast`]: both score halves
/// per row in one pass over `z`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn score_dots_avx2(
    z: &[f32],
    f: usize,
    a_dst: &[f32],
    a_src: &[f32],
    zd_dot: &mut [f32],
    zs_dot: &mut [f32],
) {
    use std::arch::x86_64::*;
    #[inline]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let q = _mm_add_ps(lo, hi);
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let s = _mm_add_ss(d, _mm_shuffle_ps(d, d, 1));
        _mm_cvtss_f32(s)
    }
    for (i, (zd, zs)) in zd_dot.iter_mut().zip(zs_dot.iter_mut()).enumerate() {
        let row = z[i * f..(i + 1) * f].as_ptr();
        let mut accd = _mm256_setzero_ps();
        let mut accs = _mm256_setzero_ps();
        let mut j = 0;
        while j < f {
            let v = _mm256_loadu_ps(row.add(j));
            accd = _mm256_fmadd_ps(v, _mm256_loadu_ps(a_dst.as_ptr().add(j)), accd);
            accs = _mm256_fmadd_ps(v, _mm256_loadu_ps(a_src.as_ptr().add(j)), accs);
            j += 8;
        }
        *zd = hsum(accd);
        *zs = hsum(accs);
    }
}

/// Attention-weighted scatter: `out[d] += Σ_e alpha_e · z[src_e]` with
/// `alpha` in the plan's destination-sorted order (from
/// [`attend_scores`]). Accumulates into `out` — pre-zero it for a plain
/// attended result, or hand it a running sum to fuse the follow-on add
/// (the executor's reduced-precision edge-type accumulation does this).
///
/// # Panics
///
/// Panics if the lengths disagree with the plan.
pub fn attend_apply(z: &[f32], f: usize, plan: &CsrPlan, alpha: &[f32], out: &mut [f32]) {
    let n = plan.num_nodes();
    assert_eq!(z.len(), n * f, "attend input length mismatch");
    assert_eq!(out.len(), n * f, "attend out length mismatch");
    assert_eq!(alpha.len(), plan.num_edges(), "alpha/edge count mismatch");
    let work = plan.num_edges().saturating_mul(f);
    par_rows_by_work(n, f, work, out, |chunk, d0, d1| {
        let offsets = plan.dst_offsets();
        let src = plan.sorted_src();
        for d in d0..d1 {
            let row = &mut chunk[(d - d0) * f..(d - d0 + 1) * f];
            for ei in offsets[d] as usize..offsets[d + 1] as usize {
                let w = alpha[ei];
                let s = src[ei] as usize;
                for (o, &v) in row.iter_mut().zip(z[s * f..(s + 1) * f].iter()) {
                    *o += w * v;
                }
            }
        }
    });
}

// --- quantized / widened-SIMD kernels ----------------------------------
//
// Everything below serves the compiled executor's reduced-precision
// path. These kernels keep a *scalar/SIMD* bitwise guarantee (integer
// accumulation is exact; the float paths use the same per-element
// mul/add order on every dispatch), but the int8 results are of
// course not bitwise equal to the f32 kernels above — the accuracy
// contract is pinned by tolerance instead (see docs/performance.md).

/// True when the 8-lane kernels below may run on `cols`-wide rows.
/// Rows wider than the 64 columns that fit in vector registers are
/// handled inside each kernel by tiling the columns, which leaves every
/// element's accumulation order untouched.
#[cfg(target_arch = "x86_64")]
fn lanes8_tiled(cols: usize) -> bool {
    cols > 0 && cols.is_multiple_of(8) && std::arch::is_x86_feature_detected!("avx2")
}

/// Widened int8 GEMM: `out = dequant(qa (m x k) @ b (k x n))` where
/// `qa` holds symmetric int8 activations at scale `a_scale` and `b` is
/// a packed [`QuantMatrix`]. Products accumulate **exactly** in `i32`,
/// then one fused dequantization multiply per element applies
/// `a_scale · b.scales()[j]`. Zeroes (overwrites) `out`.
///
/// The AVX2 path consumes one interleaved row pair per
/// `_mm256_madd_epi16` — 16 multiply-accumulates per instruction,
/// twice the f32 kernel's lane width. Because integer accumulation is
/// exact, the scalar and SIMD dispatches are bit-identical.
///
/// # Panics
///
/// Panics if any length disagrees with the given shape.
pub fn matmul_q8(
    qa: &[i8],
    a_scale: f32,
    b: &QuantMatrix,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(qa.len(), m * k, "matmul_q8 lhs length mismatch");
    assert_eq!((b.rows(), b.cols()), (k, n), "matmul_q8 rhs shape mismatch");
    assert_eq!(out.len(), m * n, "matmul_q8 out length mismatch");
    let pairs = k.div_ceil(2);
    let work = m.saturating_mul(k).saturating_mul(n);
    par_rows_by_work(m, n, work, out, |chunk, r0, r1| {
        #[cfg(target_arch = "x86_64")]
        if lanes8_tiled(n) {
            // SAFETY: feature detection and lane count checked above.
            unsafe { matmul_q8_rows_avx2(qa, a_scale, b, chunk, k, n, r0, r1) };
            return;
        }
        let packed = b.packed();
        let scales = b.scales();
        let mut acc = vec![0_i32; n];
        for i in r0..r1 {
            acc.fill(0);
            let a_row = &qa[i * k..(i + 1) * k];
            for q in 0..pairs {
                let a0 = a_row[2 * q] as i32;
                let a1 = if 2 * q + 1 < k {
                    a_row[2 * q + 1] as i32
                } else {
                    0
                };
                if a0 == 0 && a1 == 0 {
                    continue;
                }
                let b_pair = &packed[q * 2 * n..(q + 1) * 2 * n];
                for (j, slot) in acc.iter_mut().enumerate() {
                    *slot += a0 * b_pair[2 * j] as i32 + a1 * b_pair[2 * j + 1] as i32;
                }
            }
            let c_row = &mut chunk[(i - r0) * n..(i - r0 + 1) * n];
            for (j, c_v) in c_row.iter_mut().enumerate() {
                *c_v = (acc[j] as f32 * a_scale) * scales[j];
            }
        }
    });
}

/// Largest `k` whose widened activation row fits the stack scratch
/// buffer of [`matmul_q8_rows_avx2`]; wider products fall back to the
/// bit-identical (exact i32) pairwise-decode loop.
#[cfg(target_arch = "x86_64")]
const Q8_WIDEN_MAX_K: usize = 2048;

/// AVX2 inner kernel for [`matmul_q8`]: each activation row is widened
/// once to an i16 pair buffer, its **nonzero** pair words compressed
/// (branchlessly) into an index list, and the hot loop then broadcasts
/// one listed pair word per `madd` against the interleaved weight row
/// pairs. Quantized post-ReLU activations leave many pair words zero;
/// compressing once per row both skips their `madd`s and keeps the
/// inner loop free of the ~unpredictable per-pair branch a naive skip
/// would pay in every column tile. Output rows wider than 64 columns
/// iterate 64-column tiles; integer accumulation is exact, so neither
/// tiling nor zero-pair skipping changes the result.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn matmul_q8_rows_avx2(
    qa: &[i8],
    a_scale: f32,
    b: &QuantMatrix,
    c: &mut [f32],
    k: usize,
    n: usize,
    row_start: usize,
    row_end: usize,
) {
    use std::arch::x86_64::*;
    let pairs = k.div_ceil(2);
    let packed = b.packed();
    let scales = b.scales();
    let vscale = _mm256_set1_ps(a_scale);
    let mut wide = [0_i16; Q8_WIDEN_MAX_K];
    // Compressed nonzero pairs: weight-row byte offset and pair word.
    let mut nz_off = [0_u32; Q8_WIDEN_MAX_K / 2];
    let mut nz_word = [0_i32; Q8_WIDEN_MAX_K / 2];
    for i in row_start..row_end {
        let a_row = &qa[i * k..(i + 1) * k];
        let use_widened = k <= Q8_WIDEN_MAX_K;
        let mut nnz = 0_usize;
        if use_widened {
            // Widen 16 lanes per step; the (zero-padded) tail scalar.
            let mut j = 0;
            while j + 16 <= k {
                let v = _mm_loadu_si128(a_row.as_ptr().add(j) as *const __m128i);
                _mm256_storeu_si256(
                    wide.as_mut_ptr().add(j) as *mut __m256i,
                    _mm256_cvtepi8_epi16(v),
                );
                j += 16;
            }
            while j < k {
                wide[j] = a_row[j] as i16;
                j += 1;
            }
            if k < 2 * pairs {
                wide[k] = 0;
            }
            // Branchless compaction: always write, advance on nonzero.
            let pair_words = wide.as_ptr() as *const i32;
            for q in 0..pairs {
                let word = *pair_words.add(q);
                *nz_off.get_unchecked_mut(nnz) = (q * 2 * n) as u32;
                *nz_word.get_unchecked_mut(nnz) = word;
                nnz += usize::from(word != 0);
            }
        }
        let mut col0 = 0;
        while col0 < n {
            let blocks = ((n - col0) / 8).min(8);
            let mut acc = [_mm256_setzero_si256(); 8];
            if use_widened {
                let pbase = packed.as_ptr();
                for t in 0..nnz {
                    let av = _mm256_set1_epi32(*nz_word.get_unchecked(t));
                    let b_pair = pbase.add(*nz_off.get_unchecked(t) as usize + 2 * col0);
                    for (bl, slot) in acc.iter_mut().take(blocks).enumerate() {
                        let bv = _mm256_loadu_si256(b_pair.add(bl * 16) as *const __m256i);
                        *slot = _mm256_add_epi32(*slot, _mm256_madd_epi16(bv, av));
                    }
                }
            } else {
                for q in 0..pairs {
                    let a0 = a_row[2 * q] as i16;
                    let a1 = if 2 * q + 1 < k {
                        a_row[2 * q + 1] as i16
                    } else {
                        0
                    };
                    if a0 == 0 && a1 == 0 {
                        continue;
                    }
                    let pair = ((a1 as u16 as u32) << 16) | (a0 as u16 as u32);
                    let av = _mm256_set1_epi32(pair as i32);
                    let b_pair = packed[q * 2 * n..(q + 1) * 2 * n].as_ptr();
                    for (bl, slot) in acc.iter_mut().take(blocks).enumerate() {
                        let bv =
                            _mm256_loadu_si256(b_pair.add(2 * col0 + bl * 16) as *const __m256i);
                        *slot = _mm256_add_epi32(*slot, _mm256_madd_epi16(bv, av));
                    }
                }
            }
            let c_row = c[(i - row_start) * n..(i - row_start + 1) * n].as_mut_ptr();
            for (bl, slot) in acc.iter().take(blocks).enumerate() {
                let f = _mm256_cvtepi32_ps(*slot);
                let sc = _mm256_loadu_ps(scales.as_ptr().add(col0 + bl * 8));
                _mm256_storeu_ps(
                    c_row.add(col0 + bl * 8),
                    _mm256_mul_ps(_mm256_mul_ps(f, vscale), sc),
                );
            }
            col0 += blocks * 8;
        }
    }
}

/// Quantized activations with their nonzero pair words pre-compressed,
/// so the per-row widen + compaction cost of [`matmul_q8`] is paid
/// **once** per activation buffer instead of once per GEMM.
///
/// The executor's ParaGraph/GAT layers multiply the same quantized
/// hidden state against one weight matrix per edge type and head —
/// with [`Q8Prepared`] the sibling GEMMs share a single preparation
/// pass. The compressed form stores pair *indices* (not offsets), so
/// one preparation serves right-hand sides of any width. All buffers
/// are grow-only: steady-state reuse allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct Q8Prepared {
    m: usize,
    k: usize,
    /// Raw symmetric int8 activations, `m * k` row-major.
    qa: Vec<i8>,
    /// Widen scratch for one row (`2 * pairs`, zero-padded).
    wide: Vec<i16>,
    /// Per-row prefix offsets into `nz_q`/`nz_word` (`m + 1` long).
    nz_start: Vec<u32>,
    /// Pair index of each nonzero pair word.
    nz_q: Vec<u32>,
    /// The i16 activation pair packed in broadcast order.
    nz_word: Vec<i32>,
}

impl Q8Prepared {
    /// Quantizes `a` (`m x k`, scale `scale`) and compresses each row's
    /// nonzero pair words. See [`crate::quant::quantize_i8`] for the
    /// rounding contract.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k`.
    pub fn prepare(&mut self, a: &[f32], scale: f32, m: usize, k: usize) {
        assert_eq!(a.len(), m * k, "prepare lhs length mismatch");
        self.m = m;
        self.k = k;
        let pairs = k.div_ceil(2);
        if self.qa.len() < m * k {
            self.qa.resize(m * k, 0);
        }
        crate::quant::quantize_i8(a, scale, &mut self.qa[..m * k]);
        if self.wide.len() < 2 * pairs {
            self.wide.resize(2 * pairs, 0);
        }
        if self.nz_start.len() < m + 1 {
            self.nz_start.resize(m + 1, 0);
        }
        if self.nz_q.len() < m * pairs {
            self.nz_q.resize(m * pairs, 0);
            self.nz_word.resize(m * pairs, 0);
        }
        let mut nnz = 0_usize;
        for i in 0..m {
            self.nz_start[i] = nnz as u32;
            let row = &self.qa[i * k..(i + 1) * k];
            // Widen the row to i16 pairs (zero-padding an odd k), then
            // compact branchlessly: always write, advance on nonzero.
            #[cfg(target_arch = "x86_64")]
            let widened = if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 presence checked above; `wide` holds
                // `2 * pairs >= k` entries.
                unsafe { widen_row_avx2(row, &mut self.wide) };
                true
            } else {
                false
            };
            #[cfg(not(target_arch = "x86_64"))]
            let widened = false;
            if !widened {
                for (w, &v) in self.wide.iter_mut().zip(row.iter()) {
                    *w = v as i16;
                }
            }
            if k < 2 * pairs {
                self.wide[k] = 0;
            }
            for q in 0..pairs {
                let word = (self.wide[2 * q] as u16 as u32
                    | ((self.wide[2 * q + 1] as u16 as u32) << 16))
                    as i32;
                self.nz_q[nnz] = q as u32;
                self.nz_word[nnz] = word;
                nnz += usize::from(word != 0);
            }
        }
        self.nz_start[m] = nnz as u32;
    }

    /// Row count of the prepared activations.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Inner (`k`) dimension of the prepared activations.
    pub fn inner(&self) -> usize {
        self.k
    }

    /// The raw quantized activations (`m * k`, row-major).
    pub fn qa(&self) -> &[i8] {
        &self.qa[..self.m * self.k]
    }
}

/// Widens an i8 row into the i16 buffer, 16 lanes per step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn widen_row_avx2(row: &[i8], wide: &mut [i16]) {
    use std::arch::x86_64::*;
    let k = row.len();
    let mut j = 0;
    while j + 16 <= k {
        let v = _mm_loadu_si128(row.as_ptr().add(j) as *const __m128i);
        _mm256_storeu_si256(
            wide.as_mut_ptr().add(j) as *mut __m256i,
            _mm256_cvtepi8_epi16(v),
        );
        j += 16;
    }
    while j < k {
        wide[j] = row[j] as i16;
        j += 1;
    }
}

/// [`matmul_q8`] over pre-prepared activations: identical results
/// (integer accumulation is exact and zero pairs contribute nothing),
/// minus the per-call widen/compress work. `n` is the output width.
///
/// # Panics
///
/// Panics if `b`'s shape disagrees with the preparation or `out` with
/// `(rows, n)`.
pub fn matmul_q8_prepared(
    p: &Q8Prepared,
    a_scale: f32,
    b: &QuantMatrix,
    out: &mut [f32],
    n: usize,
) {
    let (m, k) = (p.m, p.k);
    assert_eq!(
        (b.rows(), b.cols()),
        (k, n),
        "matmul_q8_prepared rhs shape mismatch"
    );
    assert_eq!(out.len(), m * n, "matmul_q8_prepared out length mismatch");
    let work = m.saturating_mul(k).saturating_mul(n);
    par_rows_by_work(m, n, work, out, |chunk, r0, r1| {
        #[cfg(target_arch = "x86_64")]
        if lanes8_tiled(n) {
            // SAFETY: feature detection and lane count checked above.
            unsafe { matmul_q8_prepared_rows_avx2(p, a_scale, b, chunk, n, r0, r1) };
            return;
        }
        let packed = b.packed();
        let scales = b.scales();
        let mut acc = vec![0_i32; n];
        for i in r0..r1 {
            acc.fill(0);
            for t in p.nz_start[i] as usize..p.nz_start[i + 1] as usize {
                let q = p.nz_q[t] as usize;
                let word = p.nz_word[t];
                let a0 = (word & 0xffff) as u16 as i16 as i32;
                let a1 = ((word >> 16) & 0xffff) as u16 as i16 as i32;
                let b_pair = &packed[q * 2 * n..(q + 1) * 2 * n];
                for (j, slot) in acc.iter_mut().enumerate() {
                    *slot += a0 * b_pair[2 * j] as i32 + a1 * b_pair[2 * j + 1] as i32;
                }
            }
            let c_row = &mut chunk[(i - r0) * n..(i - r0 + 1) * n];
            for (j, c_v) in c_row.iter_mut().enumerate() {
                *c_v = (acc[j] as f32 * a_scale) * scales[j];
            }
        }
    });
}

/// AVX2 inner kernel for [`matmul_q8_prepared`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_q8_prepared_rows_avx2(
    p: &Q8Prepared,
    a_scale: f32,
    b: &QuantMatrix,
    c: &mut [f32],
    n: usize,
    row_start: usize,
    row_end: usize,
) {
    use std::arch::x86_64::*;
    let packed = b.packed();
    let scales = b.scales();
    let vscale = _mm256_set1_ps(a_scale);
    for i in row_start..row_end {
        let t0 = *p.nz_start.get_unchecked(i) as usize;
        let t1 = *p.nz_start.get_unchecked(i + 1) as usize;
        let mut col0 = 0;
        while col0 < n {
            let blocks = ((n - col0) / 8).min(8);
            let mut acc = [_mm256_setzero_si256(); 8];
            let pbase = packed.as_ptr();
            for t in t0..t1 {
                let av = _mm256_set1_epi32(*p.nz_word.get_unchecked(t));
                let q = *p.nz_q.get_unchecked(t) as usize;
                let b_pair = pbase.add(q * 2 * n + 2 * col0);
                for (bl, slot) in acc.iter_mut().take(blocks).enumerate() {
                    let bv = _mm256_loadu_si256(b_pair.add(bl * 16) as *const __m256i);
                    *slot = _mm256_add_epi32(*slot, _mm256_madd_epi16(bv, av));
                }
            }
            let c_row = c[(i - row_start) * n..(i - row_start + 1) * n].as_mut_ptr();
            for (bl, slot) in acc.iter().take(blocks).enumerate() {
                let f = _mm256_cvtepi32_ps(*slot);
                let sc = _mm256_loadu_ps(scales.as_ptr().add(col0 + bl * 8));
                _mm256_storeu_ps(
                    c_row.add(col0 + bl * 8),
                    _mm256_mul_ps(_mm256_mul_ps(f, vscale), sc),
                );
            }
            col0 += blocks * 8;
        }
    }
}

/// [`spmm_mean`] with 8-lane AVX2 inner loops, used by the executor's
/// reduced-precision path. Per-element accumulation order (ascending
/// edge index, mean multiply last) matches [`spmm_mean`] exactly and
/// lanes are distinct elements, so results are bit-identical to it —
/// the split exists only so the f32 executor path keeps dispatching
/// through the identical-by-construction tape kernels.
///
/// # Panics
///
/// Panics as [`spmm_mean`] does.
pub fn spmm_mean_fast(h: &[f32], f: usize, plan: &CsrPlan, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if lanes8_tiled(f) {
        let n = plan.num_nodes();
        assert_eq!(h.len(), n * f, "spmm_mean input length mismatch");
        assert_eq!(out.len(), n * f, "spmm_mean out length mismatch");
        let work = plan.num_edges().saturating_mul(f);
        par_rows_by_work(n, f, work, out, |chunk, d0, d1| {
            // SAFETY: lanes8_tiled verified AVX2 and the lane count.
            unsafe { spmm_mean_rows_avx2(h, f, plan, chunk, d0, d1) };
        });
        return;
    }
    spmm_mean(h, f, plan, out);
}

/// AVX2 inner kernel for [`spmm_mean_fast`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn spmm_mean_rows_avx2(
    h: &[f32],
    f: usize,
    plan: &CsrPlan,
    chunk: &mut [f32],
    d0: usize,
    d1: usize,
) {
    use std::arch::x86_64::*;
    let offsets = plan.dst_offsets();
    let src = plan.sorted_src();
    let inv = plan.inv_in_degree();
    let mut col0 = 0;
    while col0 < f {
        let blocks = ((f - col0) / 8).min(8);
        for d in d0..d1 {
            let row = chunk[(d - d0) * f..(d - d0 + 1) * f].as_mut_ptr();
            let mut acc = [_mm256_setzero_ps(); 8];
            for (bl, slot) in acc.iter_mut().take(blocks).enumerate() {
                *slot = _mm256_loadu_ps(row.add(col0 + bl * 8));
            }
            for &s in &src[offsets[d] as usize..offsets[d + 1] as usize] {
                let h_row = h[(s as usize) * f..(s as usize + 1) * f].as_ptr();
                for (bl, slot) in acc.iter_mut().take(blocks).enumerate() {
                    *slot = _mm256_add_ps(*slot, _mm256_loadu_ps(h_row.add(col0 + bl * 8)));
                }
            }
            let w = _mm256_set1_ps(inv[d]);
            for (bl, slot) in acc.iter().take(blocks).enumerate() {
                _mm256_storeu_ps(row.add(col0 + bl * 8), _mm256_mul_ps(*slot, w));
            }
        }
        col0 += blocks * 8;
    }
}

/// [`attend_apply`] with 8-lane AVX2 inner loops, used by the
/// executor's reduced-precision path. Same per-element order as
/// [`attend_apply`] (ascending edge index, mul/add unfused), so the
/// two are bit-identical.
///
/// # Panics
///
/// Panics as [`attend_apply`] does.
pub fn attend_apply_fast(z: &[f32], f: usize, plan: &CsrPlan, alpha: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if lanes8_tiled(f) {
        let n = plan.num_nodes();
        assert_eq!(z.len(), n * f, "attend input length mismatch");
        assert_eq!(out.len(), n * f, "attend out length mismatch");
        assert_eq!(alpha.len(), plan.num_edges(), "alpha/edge count mismatch");
        let work = plan.num_edges().saturating_mul(f);
        par_rows_by_work(n, f, work, out, |chunk, d0, d1| {
            // SAFETY: lanes8_tiled verified AVX2 and the lane count.
            unsafe { attend_apply_rows_avx2(z, f, plan, alpha, chunk, d0, d1) };
        });
        return;
    }
    attend_apply(z, f, plan, alpha, out);
}

/// AVX2 inner kernel for [`attend_apply_fast`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn attend_apply_rows_avx2(
    z: &[f32],
    f: usize,
    plan: &CsrPlan,
    alpha: &[f32],
    chunk: &mut [f32],
    d0: usize,
    d1: usize,
) {
    use std::arch::x86_64::*;
    let offsets = plan.dst_offsets();
    let src = plan.sorted_src();
    let mut col0 = 0;
    while col0 < f {
        let blocks = ((f - col0) / 8).min(8);
        for d in d0..d1 {
            let row = chunk[(d - d0) * f..(d - d0 + 1) * f].as_mut_ptr();
            let mut acc = [_mm256_setzero_ps(); 8];
            for (bl, slot) in acc.iter_mut().take(blocks).enumerate() {
                *slot = _mm256_loadu_ps(row.add(col0 + bl * 8));
            }
            for ei in offsets[d] as usize..offsets[d + 1] as usize {
                let w = _mm256_set1_ps(alpha[ei]);
                let z_row = z[(src[ei] as usize) * f..(src[ei] as usize + 1) * f].as_ptr();
                for (bl, slot) in acc.iter_mut().take(blocks).enumerate() {
                    *slot = _mm256_add_ps(
                        *slot,
                        _mm256_mul_ps(w, _mm256_loadu_ps(z_row.add(col0 + bl * 8))),
                    );
                }
            }
            for (bl, slot) in acc.iter().take(blocks).enumerate() {
                _mm256_storeu_ps(row.add(col0 + bl * 8), *slot);
            }
        }
        col0 += blocks * 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_tensor_matmul() {
        let a = crate::Tensor::from_fn(3, 4, |i, j| (i * 4 + j) as f32 * 0.25 - 1.0);
        let b = crate::Tensor::from_fn(4, 2, |i, j| (i as f32 - j as f32) * 0.5);
        let expect = a.matmul(&b);
        let mut out = vec![f32::NAN; 6];
        matmul(a.as_slice(), b.as_slice(), &mut out, 3, 4, 2);
        assert_eq!(out, expect.as_slice());
    }

    #[test]
    fn add_bias_relu_l2norm_roundtrip() {
        let mut x = vec![1.0, -2.0, 3.0, -4.0];
        add_bias(&mut x, &[0.5, 0.5]);
        assert_eq!(x, vec![1.5, -1.5, 3.5, -3.5]);
        relu(&mut x);
        assert_eq!(x, vec![1.5, 0.0, 3.5, 0.0]);
        row_l2_normalize(&mut x, 2);
        assert_eq!(x, vec![1.0, 0.0, 1.0, 0.0]);
        // Zero rows pass through unscaled.
        let mut z = vec![0.0, 0.0];
        row_l2_normalize(&mut z, 2);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn gather_scatter_inverse_on_permutation() {
        let src = [1.0_f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut gathered = vec![0.0; 6];
        gather_rows(&src, 2, &[2, 0, 1], &mut gathered);
        assert_eq!(gathered, vec![5.0, 6.0, 1.0, 2.0, 3.0, 4.0]);
        let mut back = vec![0.0; 6];
        scatter_add_rows(&gathered, 2, &[2, 0, 1], &mut back);
        assert_eq!(back.as_slice(), src.as_slice());
    }

    #[test]
    fn spmm_mean_averages_incoming_rows() {
        // Edges 0->2, 1->2: node 2 receives the mean of rows 0 and 1.
        let plan = CsrPlan::new(&[0, 1], &[2, 2], 3);
        let h = [2.0_f32, 4.0, 6.0, 8.0, 0.0, 0.0];
        let mut out = vec![0.0; 6];
        spmm_mean(&h, 2, &plan, &mut out);
        assert_eq!(&out[4..], &[4.0, 6.0]);
        assert_eq!(&out[..4], &[0.0; 4]);
    }

    /// Reference int8 GEMM straight off the quantized values — the
    /// kernel must match it bit for bit (integer accumulation is exact).
    fn q8_reference(
        qa: &[i8],
        a_scale: f32,
        b: &QuantMatrix,
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0_f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0_i64;
                for p in 0..k {
                    let w = b.packed()[(p / 2) * 2 * n + 2 * j + (p % 2)] as i64;
                    acc += qa[i * k + p] as i64 * w;
                }
                out[i * n + j] = (acc as i32 as f32 * a_scale) * b.scales()[j];
            }
        }
        out
    }

    #[test]
    fn matmul_q8_matches_integer_reference() {
        for (m, k, n) in [(3, 5, 16), (4, 4, 8), (2, 7, 6), (1, 1, 3)] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.11)
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 29 % 23) as f32 - 11.0) * 0.07)
                .collect();
            let bq = QuantMatrix::quantize(&b, k, n);
            let a_scale = crate::quant::max_abs(&a) / 127.0;
            let mut qa = vec![0_i8; m * k];
            crate::quant::quantize_i8(&a, a_scale, &mut qa);
            let mut out = vec![f32::NAN; m * n];
            matmul_q8(&qa, a_scale, &bq, &mut out, m, k, n);
            assert_eq!(
                out,
                q8_reference(&qa, a_scale, &bq, m, k, n),
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn matmul_q8_prepared_matches_one_shot_kernel() {
        // Shapes cover SIMD-tiled (n multiple of 8, incl. > 64) and
        // scalar dispatch, odd k, and rows with all-zero pairs.
        for (m, k, n) in [(3, 5, 16), (4, 8, 72), (2, 7, 6), (5, 128, 128)] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| (((i * 37 % 19) as f32 - 9.0) * 0.11).max(0.0))
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 29 % 23) as f32 - 11.0) * 0.07)
                .collect();
            let bq = QuantMatrix::quantize(&b, k, n);
            let a_scale = crate::quant::max_abs(&a) / 127.0;
            let mut qa = vec![0_i8; m * k];
            crate::quant::quantize_i8(&a, a_scale, &mut qa);
            let mut one_shot = vec![f32::NAN; m * n];
            matmul_q8(&qa, a_scale, &bq, &mut one_shot, m, k, n);
            let mut prep = Q8Prepared::default();
            prep.prepare(&a, a_scale, m, k);
            assert_eq!(prep.qa(), &qa[..], "prepare must quantize identically");
            let mut out = vec![f32::NAN; m * n];
            matmul_q8_prepared(&prep, a_scale, &bq, &mut out, n);
            assert_eq!(out, one_shot, "({m},{k},{n})");
            // Preparations are reusable across right-hand sides.
            let mut again = vec![f32::NAN; m * n];
            matmul_q8_prepared(&prep, a_scale, &bq, &mut again, n);
            assert_eq!(again, one_shot, "({m},{k},{n}) reuse");
        }
    }

    #[test]
    fn matmul_q8_approximates_f32_matmul() {
        let (m, k, n) = (6, 16, 16);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 13 % 31) as f32 - 15.0) * 0.05)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 17 % 27) as f32 - 13.0) * 0.04)
            .collect();
        let mut exact = vec![0.0; m * n];
        matmul(&a, &b, &mut exact, m, k, n);
        let bq = QuantMatrix::quantize(&b, k, n);
        let a_scale = crate::quant::max_abs(&a) / 127.0;
        let mut qa = vec![0_i8; m * k];
        crate::quant::quantize_i8(&a, a_scale, &mut qa);
        let mut out = vec![0.0; m * n];
        matmul_q8(&qa, a_scale, &bq, &mut out, m, k, n);
        let scale = crate::quant::max_abs(&exact).max(1e-6);
        for (q, e) in out.iter().zip(exact.iter()) {
            assert!((q - e).abs() <= 0.02 * scale, "int8 {q} vs f32 {e}");
        }
    }

    #[test]
    fn fast_aggregation_kernels_are_bitwise_identical() {
        // f = 16 exercises the AVX2 path where available; the contract
        // says fast == standard bit for bit either way.
        let f = 16;
        let n = 9;
        let src: Vec<u32> = (0..24).map(|i| i % n as u32).collect();
        let dst: Vec<u32> = (0..24).map(|i| (i * 5 + 2) % n as u32).collect();
        let plan = CsrPlan::new(&src, &dst, n);
        let h: Vec<f32> = (0..n * f)
            .map(|i| ((i * 3 % 41) as f32 - 20.0) * 0.17)
            .collect();
        let mut a = vec![0.0; n * f];
        let mut b = vec![0.0; n * f];
        spmm_mean(&h, f, &plan, &mut a);
        spmm_mean_fast(&h, f, &plan, &mut b);
        assert_eq!(a, b, "spmm_mean_fast drifted from spmm_mean");
        let alpha: Vec<f32> = (0..plan.num_edges())
            .map(|i| (i as f32 + 1.0) * 0.03)
            .collect();
        a.fill(0.0);
        b.fill(0.0);
        attend_apply(&h, f, &plan, &alpha, &mut a);
        attend_apply_fast(&h, f, &plan, &alpha, &mut b);
        assert_eq!(a, b, "attend_apply_fast drifted from attend_apply");
    }

    #[test]
    fn attend_scores_softmax_sums_to_one() {
        let plan = CsrPlan::new(&[0, 1, 2], &[2, 2, 0], 3);
        let z = [0.3_f32, -0.1, 0.7, 0.2, -0.4, 0.5];
        let a = [0.25_f32, -0.5, 1.0, 0.75];
        let (mut zd, mut zs) = (vec![0.0; 3], vec![0.0; 3]);
        let (mut raw, mut alpha) = (vec![0.0; 3], vec![0.0; 3]);
        attend_scores(
            &z, 2, &a, &plan, 0.2, &mut zd, &mut zs, &mut raw, &mut alpha,
        );
        // Destination 2 owns sorted edges 1..3; its weights sum to 1.
        assert!((alpha[1] + alpha[2] - 1.0).abs() < 1e-6);
        assert!((alpha[0] - 1.0).abs() < 1e-6);
        let mut out = vec![0.0; 6];
        attend_apply(&z, 2, &plan, &alpha, &mut out);
        // Node 1 aggregates nothing; node 0 aggregates z[2] with weight 1.
        assert_eq!(&out[2..4], &[0.0, 0.0]);
        assert_eq!(&out[..2], &[-0.4, 0.5]);
    }
}

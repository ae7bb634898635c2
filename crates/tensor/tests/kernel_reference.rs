//! The f32 kernels against naive scalar loops, bit for bit.
//!
//! `kernels::matmul`, `Tensor::matmul_tn` and `kernels::attend_scores`
//! promise every output element one fixed arithmetic: its terms summed
//! one at a time in ascending order, starting from `+0.0`, each a
//! separate multiply then add. The dense products also skip every term
//! whose activation is an exact zero of either sign and keep every other
//! term, NaN included. The references below are those loops written out
//! plainly. A SIMD path that splits one element's sum across lanes,
//! fuses a multiply-add, reorders terms or skips a different set fails
//! here.

use paragraph_tensor::{kernels, CsrPlan, Tensor};

/// Inner dimensions: one term, and either side of a 128-term tile.
const KS: [usize; 5] = [1, 127, 128, 129, 300];
/// Output widths: one to eight 8-lane blocks, widths that need more than
/// one column tile, and one width the vector kernels do not take.
const NS: [usize; 6] = [8, 32, 64, 72, 136, 12];
/// Output rows: one, either side of an 8-row group.
const MS: [usize; 4] = [1, 7, 8, 9];
/// A product big enough to run on the worker pool (more than 2^21
/// multiply-adds, the kernels' parallel threshold).
const LARGE: (usize, usize, usize) = (300, 129, 72);

/// Deterministic inputs from a 64-bit LCG.
struct Lcg(u64);

impl Lcg {
    fn bits(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 32) as u32
    }

    /// A nonzero value with a spread of exponents, so that sums taken in
    /// another order round differently.
    fn value(&mut self) -> f32 {
        let r = self.bits();
        let mantissa = 1.0 + (r & 0xffff) as f32 / 65_536.0;
        let exponent = ((r >> 16) % 12) as i32 - 8;
        let sign = if r >> 31 == 1 { -1.0 } else { 1.0 };
        sign * mantissa * 2f32.powi(exponent)
    }

    /// A post-ReLU-like entry: about half are exact zeros of either sign.
    fn activation(&mut self) -> f32 {
        match self.bits() % 4 {
            0 => 0.0,
            1 => -0.0,
            _ => self.value(),
        }
    }
}

/// Bitwise equality, except that any two NaNs match: a NaN's payload
/// depends on operand order inside one IEEE addition, which the contract
/// does not fix.
fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} is {g:e} ({:#010x}), reference {w:e} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// `a (m x k) @ b (k x n)` with term `p` of row `i` skipped when
/// `a[i][p]` is zero.
fn reference_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0_f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0_f32;
            for p in 0..k {
                let x = a[i * k + p];
                if x != 0.0 {
                    acc += x * b[p * n + j];
                }
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// `a (k x m)ᵀ @ b (k x n)` with term `i` of row `p` skipped when
/// `a[i][p]` is zero.
fn reference_matmul_tn(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0_f32; m * n];
    for p in 0..m {
        for j in 0..n {
            let mut acc = 0.0_f32;
            for i in 0..k {
                let x = a[i * m + p];
                if x != 0.0 {
                    acc += x * b[i * n + j];
                }
            }
            out[p * n + j] = acc;
        }
    }
    out
}

/// Activations `a` (`rows x terms`, term `t` of row `r` at
/// `a[r * row_stride + t * term_stride]`) and weights `b` (`terms x n`).
/// Term `dead` is zero in every row while its weight row holds
/// infinities and a NaN, so a kernel that fails to skip it returns NaN.
/// Row 5, where it exists, has a NaN activation, which must be kept.
fn operands(
    rng: &mut Lcg,
    rows: usize,
    terms: usize,
    n: usize,
    row_stride: usize,
    term_stride: usize,
) -> (Vec<f32>, Vec<f32>) {
    let mut a: Vec<f32> = (0..rows * terms).map(|_| rng.activation()).collect();
    let mut b: Vec<f32> = (0..terms * n).map(|_| rng.value()).collect();
    let dead = terms / 2;
    for r in 0..rows {
        a[r * row_stride + dead * term_stride] = if r % 2 == 0 { 0.0 } else { -0.0 };
    }
    b[dead * n] = f32::INFINITY;
    b[dead * n + n / 2] = f32::NEG_INFINITY;
    b[dead * n + n - 1] = f32::NAN;
    if rows > 5 && terms > 1 {
        let t = (dead + 1) % terms;
        a[5 * row_stride + t * term_stride] = f32::NAN;
    }
    (a, b)
}

fn shapes() -> impl Iterator<Item = (usize, usize, usize)> {
    let small = MS
        .into_iter()
        .flat_map(|m| KS.into_iter().flat_map(move |k| NS.map(|n| (m, k, n))));
    small.chain([LARGE, (LARGE.0, LARGE.1, 136)])
}

#[test]
fn matmul_is_bitwise_the_scalar_loop() {
    let mut rng = Lcg(1);
    for (m, k, n) in shapes() {
        let (a, b) = operands(&mut rng, m, k, n, k, 1);
        let mut out = vec![f32::NAN; m * n];
        kernels::matmul(&a, &b, &mut out, m, k, n);
        let want = reference_matmul(&a, &b, m, k, n);
        assert_bits_eq(&out, &want, &format!("matmul m={m} k={k} n={n}"));
        assert!(
            m <= 5 || k == 1 || want[5 * n].is_nan(),
            "the NaN activation is kept"
        );
        assert!(want[..n].iter().all(|v| v.is_finite()), "row 0 is finite");
    }
}

#[test]
fn matmul_tn_is_bitwise_the_scalar_loop() {
    let mut rng = Lcg(2);
    for (m, k, n) in shapes() {
        let (a, b) = operands(&mut rng, m, k, n, 1, m);
        let got = Tensor::from_vec(k, m, a.clone()).matmul_tn(&Tensor::from_vec(k, n, b.clone()));
        let want = reference_matmul_tn(&a, &b, k, m, n);
        assert_bits_eq(
            got.as_slice(),
            &want,
            &format!("matmul_tn m={m} k={k} n={n}"),
        );
        assert!(
            m <= 5 || k == 1 || want[5 * n].is_nan(),
            "the NaN activation is kept"
        );
        assert!(want[..n].iter().all(|v| v.is_finite()), "row 0 is finite");
    }
}

/// Per-edge raw scores and per-destination softmax weights, with the
/// per-node score halves as plain ascending dots.
fn reference_scores(z: &[f32], f: usize, a: &[f32], plan: &CsrPlan, slope: f32) -> [Vec<f32>; 4] {
    let n = plan.num_nodes();
    let dot = |row: usize, half: &[f32]| {
        let mut acc = 0.0_f32;
        for j in 0..f {
            acc += z[row * f + j] * half[j];
        }
        acc
    };
    let zd: Vec<f32> = (0..n).map(|i| dot(i, &a[..f])).collect();
    let zs: Vec<f32> = (0..n).map(|i| dot(i, &a[f..])).collect();
    let raw: Vec<f32> = (0..plan.num_edges())
        .map(|e| zd[plan.sorted_dst()[e] as usize] + zs[plan.sorted_src()[e] as usize])
        .collect();
    let mut alpha = vec![0.0_f32; raw.len()];
    for d in 0..n {
        let seg = plan.edges_into(d);
        let leaky = |x: f32| if x >= 0.0 { x } else { slope * x };
        let max = seg
            .clone()
            .map(|e| leaky(raw[e]))
            .fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0_f32;
        for e in seg.clone() {
            alpha[e] = (leaky(raw[e]) - max).exp();
            denom += alpha[e];
        }
        if denom > 0.0 {
            for e in seg {
                alpha[e] /= denom;
            }
        }
    }
    [zd, zs, raw, alpha]
}

#[test]
fn attend_scores_is_bitwise_the_scalar_loop() {
    let mut rng = Lcg(3);
    for n in [1, 7, 8, 9, 17, 300] {
        for f in NS.into_iter().chain([1]) {
            let edges = 3 * n;
            let src: Vec<u32> = (0..edges).map(|_| rng.bits() % n as u32).collect();
            let dst: Vec<u32> = (0..edges).map(|_| rng.bits() % n as u32).collect();
            let plan = CsrPlan::new(&src, &dst, n);
            let z: Vec<f32> = (0..n * f).map(|_| rng.activation()).collect();
            let a: Vec<f32> = (0..2 * f).map(|_| rng.value()).collect();
            let mut got = [
                vec![f32::NAN; n],
                vec![f32::NAN; n],
                vec![f32::NAN; edges],
                vec![f32::NAN; edges],
            ];
            let [zd, zs, raw, alpha] = &mut got;
            kernels::attend_scores(&z, f, &a, &plan, 0.2, zd, zs, raw, alpha);
            let want = reference_scores(&z, f, &a, &plan, 0.2);
            for (name, (g, w)) in ["zd_dot", "zs_dot", "raw", "alpha"]
                .iter()
                .zip(got.iter().zip(want.iter()))
            {
                assert_bits_eq(g, w, &format!("attend_scores {name} n={n} f={f}"));
            }
        }
    }
}

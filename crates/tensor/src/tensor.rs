//! Dense, row-major, 2-D `f32` tensor.
//!
//! Everything in the ParaGraph reproduction is expressed over 2-D matrices:
//! node-embedding matrices are `(num_nodes, feature_dim)`, edge message
//! buffers are `(num_edges, feature_dim)`, attention scores are
//! `(num_edges, 1)`, and scalars are `(1, 1)`.

use std::fmt;

/// A dense, row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use paragraph_tensor::Tensor;
///
/// let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c, a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})[", self.rows, self.cols)?;
        let show = self.data.len().min(8);
        for (i, v) in self.data[..show].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > show {
            write!(f, ", ...")?;
        }
        write!(f, "]")
    }
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("tensor shape overflow");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with the given value.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut t = Self::zeros(rows, cols);
        t.data.fill(value);
        t
    }

    /// Creates a tensor of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Replaces this tensor's contents in place: the buffer is cleared
    /// (retaining its capacity), `fill` pushes exactly `rows * cols`
    /// values, and the shape is updated. With enough capacity the call
    /// performs no heap allocation, which is what lets batch-assembly
    /// scratch reuse a feature tensor across rebuilds.
    ///
    /// # Panics
    ///
    /// Panics if `fill` leaves the buffer at a length other than
    /// `rows * cols`.
    pub fn refill(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut Vec<f32>)) {
        let len = rows.checked_mul(cols).expect("tensor shape overflow");
        self.data.clear();
        fill(&mut self.data);
        assert_eq!(
            self.data.len(),
            len,
            "refill produced {} values for shape {rows}x{cols}",
            self.data.len()
        );
        self.rows = rows;
        self.cols = cols;
    }

    /// Creates a tensor from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in Tensor::from_rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a column vector (`n x 1`) from a slice.
    pub fn from_col(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Creates a `1 x 1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Creates a tensor whose entry `(i, j)` is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut t = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                t.data[i * cols + j] = f(i, j);
            }
        }
        t
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The value of a `1 x 1` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `1 x 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Combines two same-shape tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self + other`, elementwise.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a + b)
    }

    /// `self - other`, elementwise.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a - b)
    }

    /// Hadamard (elementwise) product.
    pub fn mul(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// In-place `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Self, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Matrix product `self @ other`.
    ///
    /// Uses a cache-friendly i-k-j loop and submits row chunks to the
    /// shared [`paragraph_runtime`] worker pool for large products.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let _span = paragraph_obs::span!("matmul", m = self.rows, k = self.cols, n = other.cols);
        let mut out = Self::zeros(self.rows, other.cols);
        matmul_into(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
        out
    }

    /// Transposed-operand product `selfᵀ @ other` without materialising
    /// the transpose.
    ///
    /// Shapes: `(k x m)ᵀ @ (k x n) = (m x n)`. Work is split over output
    /// row chunks; every chunk scans the `k` rows of both inputs in the
    /// same ascending order, so each output element sees one fixed
    /// summation order and results are bit-identical across worker
    /// counts. Used by the backward pass of [`matmul`](Self::matmul) for
    /// the right operand's gradient.
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree.
    pub fn matmul_tn(&self, other: &Self) -> Self {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})^T @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let _span = paragraph_obs::span!("matmul_tn", m = m, k = k, n = n);
        let mut out = Self::zeros(m, n);
        par_row_chunks(m, k, n, &mut out.data, |c, row_start, row_end| {
            matmul_tn_rows(&self.data, &other.data, c, k, n, row_start, row_end);
        });
        out
    }

    /// Sum of all elements as a scalar.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// Returns `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column-wise sum, producing a `1 x cols` tensor.
    pub fn col_sum(&self) -> Self {
        let mut out = Self::zeros(1, self.cols);
        for i in 0..self.rows {
            let row = self.row(i);
            for (o, &v) in out.data.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
        out
    }

    /// Row-wise sum, producing a `rows x 1` tensor.
    pub fn row_sum(&self) -> Self {
        let mut out = Self::zeros(self.rows, 1);
        for i in 0..self.rows {
            out.data[i] = self.row(i).iter().sum();
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute element, or `0.0` when empty.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &v| m.max(v.abs()))
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Stacks `self` atop `other` (same column count).
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn vstack(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Self {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Concatenates columns of `self` and `other` (same row count).
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hstack(&self, other: &Self) -> Self {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let mut out = Self::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            let dst = out.row_mut(i);
            dst[..self.cols].copy_from_slice(self.row(i));
            dst[self.cols..].copy_from_slice(other.row(i));
        }
        out
    }
}

/// Threshold (in multiply-accumulate operations) above which the matmul
/// kernels parallelise across output rows.
pub(crate) const PAR_FLOP_THRESHOLD: usize = 1 << 21;

/// Splits the `m` output rows of an `m x n` buffer into chunks and runs
/// `kernel(chunk, row_start, row_end)` for each — on the shared
/// [`paragraph_runtime`] pool when the product is large enough, inline
/// otherwise. Workers are reused across calls; nothing is spawned here.
///
/// Every output element is written by exactly one job, so any kernel
/// with a fixed per-element accumulation order stays bit-identical
/// across worker counts.
fn par_row_chunks(
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
    kernel: impl Fn(&mut [f32], usize, usize) + Sync,
) {
    let work = m.saturating_mul(k).saturating_mul(n);
    par_rows_by_work(m, n, work, c, kernel);
}

/// Like [`par_row_chunks`] but with an explicit work estimate (in
/// flop-equivalents) instead of the `m * k * n` matmul product. Used by
/// the fused sparse kernels in [`crate::tape`], whose work is
/// edge-count-bound rather than row-count-bound.
pub(crate) fn par_rows_by_work(
    m: usize,
    n: usize,
    work: usize,
    c: &mut [f32],
    kernel: impl Fn(&mut [f32], usize, usize) + Sync,
) {
    let pool = paragraph_runtime::global();
    let threads = if work >= PAR_FLOP_THRESHOLD {
        pool.threads().min(8)
    } else {
        1
    };
    if threads <= 1 || m < 2 * threads {
        kernel(c, 0, m);
        return;
    }
    let chunk = m.div_ceil(threads);
    pool.scope(|scope| {
        let mut rest = &mut c[..];
        let mut start = 0;
        while start < m {
            let rows_here = chunk.min(m - start);
            let (head, tail) = rest.split_at_mut(rows_here * n);
            rest = tail;
            let kernel = &kernel;
            let s = start;
            scope.spawn(move || kernel(head, s, s + rows_here));
            start += rows_here;
        }
    });
}

pub(crate) fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    par_row_chunks(m, k, n, c, |chunk, row_start, row_end| {
        matmul_rows(a, b, chunk, k, n, row_start, row_end);
    });
}

/// True when the AVX2 row kernel can run: x86-64 with AVX2 and POPCNT
/// (checked once, cached by `is_x86_feature_detected`) and a column
/// count that is a whole number of 256-bit lanes. Outputs wider than
/// the 64 columns that fit in vector registers are tiled by columns,
/// which leaves each element's accumulation order untouched.
#[cfg(target_arch = "x86_64")]
fn avx2_cols(n: usize) -> bool {
    n > 0
        && n.is_multiple_of(8)
        && std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("popcnt")
}

/// Terms [`matmul_rows_avx2`] compacts per pass, a whole number of
/// 8-lane groups; the lists of their positions and activations live on
/// the stack.
#[cfg(target_arch = "x86_64")]
const TERM_TILE: usize = 128;

/// `LEFT_PACK[mask]` lists the lanes set in the 8-bit `mask` in
/// ascending order, padded with lane 0.
#[cfg(target_arch = "x86_64")]
static LEFT_PACK: [[u8; 8]; 256] = {
    let mut table = [[0; 8]; 256];
    let mut mask = 0;
    while mask < 256 {
        let (mut lane, mut kept) = (0, 0);
        while lane < 8 {
            if mask & (1 << lane) != 0 {
                table[mask][kept] = lane as u8;
                kept += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
};

/// AVX2 accumulate-rows kernel for output columns `col0..col0 + 8 *
/// BLOCKS` of both dense products. Term `p` of output row `r` is the
/// activation `a[r * row_stride + p * term_stride]` times row `p` of
/// `b (k x n)`: strides `(k, 1)` read `a (m x k) @ b`, strides `(1, m)`
/// read `a (k x m)ᵀ @ b`.
///
/// The output tile lives in `BLOCKS` 256-bit accumulators while the
/// row's terms stream through them in ascending `p`. Terms whose
/// activation is zero (either sign) are skipped, as in the portable
/// kernels, but without a branch per term: post-ReLU rows are about
/// half zeros in a data-dependent pattern that a branch mispredicts.
/// Each run of up to [`TERM_TILE`] terms is first compacted eight at a
/// time: gather eight activations, compare them with zero (NaN counts
/// as nonzero), and left-pack the survivors and their positions into
/// stack lists through [`LEFT_PACK`]. Then the 8-lane mul/add runs over
/// the lists. Vector lanes are distinct output elements — never partial
/// sums — and mul/add stay separate instructions (no FMA), so every
/// element sums the same terms in the same order as the portable
/// kernels and the paths are bit-identical.
///
/// # Safety
///
/// AVX2 and POPCNT must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
#[allow(clippy::too_many_arguments)]
unsafe fn matmul_rows_avx2<const BLOCKS: usize>(
    a: &[f32],
    (row_stride, term_stride): (usize, usize),
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    col0: usize,
    row_start: usize,
    row_end: usize,
) {
    use std::arch::x86_64::*;
    const { assert!(TERM_TILE.is_multiple_of(8)) };
    assert!(col0 + BLOCKS * 8 <= n && b.len() >= k * n);
    assert!(
        k == 0
            || row_end <= row_start
            || (row_end - 1) * row_stride + (k - 1) * term_stride < a.len()
    );
    let stride = i32::try_from(term_stride)
        .ok()
        .filter(|s| s.checked_mul(8).is_some())
        .expect("term stride fits a gather index");
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let gather = _mm256_mullo_epi32(lanes, _mm256_set1_epi32(stride));
    let zero = _mm256_setzero_ps();
    let mut pos = [0_i32; TERM_TILE];
    let mut val = [0.0_f32; TERM_TILE];
    for r in row_start..row_end {
        let c_row = c[(r - row_start) * n..(r - row_start + 1) * n][col0..].as_mut_ptr();
        let mut acc = [_mm256_setzero_ps(); BLOCKS];
        for (bl, slot) in acc.iter_mut().enumerate() {
            *slot = _mm256_loadu_ps(c_row.add(bl * 8));
        }
        for p0 in (0..k).step_by(TERM_TILE) {
            let end = k.min(p0 + TERM_TILE);
            let mut nnz = 0;
            for q in (p0..end).step_by(8) {
                // Lanes at or past `end` load nothing and read +0.0.
                let live = _mm256_cmpgt_epi32(_mm256_set1_epi32((end - q) as i32), lanes);
                // SAFETY: a live lane reads term `q + lane < end <= k`
                // of row `r < row_end`, inside `a` by the assert above.
                let x = _mm256_mask_i32gather_ps::<4>(
                    zero,
                    a.as_ptr().add(r * row_stride + q * term_stride),
                    gather,
                    _mm256_castsi256_ps(live),
                );
                let keep = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NEQ_UQ>(x, zero)) as usize;
                let perm = _mm256_cvtepu8_epi32(_mm_loadl_epi64(LEFT_PACK[keep].as_ptr().cast()));
                let at = _mm256_add_epi32(perm, _mm256_set1_epi32((q - p0) as i32));
                // SAFETY: `nnz <= q - p0 <= TERM_TILE - 8`, so all eight
                // slots written are inside the lists.
                _mm256_storeu_ps(val.as_mut_ptr().add(nnz), _mm256_permutevar8x32_ps(x, perm));
                _mm256_storeu_si256(pos.as_mut_ptr().add(nnz).cast(), at);
                nnz += keep.count_ones() as usize;
            }
            for (&p, &x) in pos[..nnz].iter().zip(&val[..nnz]) {
                let av = _mm256_set1_ps(x);
                // SAFETY: term `p0 + p < k`, so the row's `col0 + 8 *
                // BLOCKS <= n` columns lie inside `b` (asserted above).
                let b_row = b.as_ptr().add((p0 + p as usize) * n + col0);
                for (bl, slot) in acc.iter_mut().enumerate() {
                    let bv = _mm256_loadu_ps(b_row.add(bl * 8));
                    *slot = _mm256_add_ps(*slot, _mm256_mul_ps(av, bv));
                }
            }
        }
        for (bl, slot) in acc.iter().enumerate() {
            _mm256_storeu_ps(c_row.add(bl * 8), *slot);
        }
    }
}

/// Runs [`matmul_rows_avx2`] over all `n` columns, one tile of up to
/// eight 256-bit accumulators at a time, monomorphised on the tile's
/// lane-block count.
///
/// # Safety
///
/// Caller must ensure AVX2 and POPCNT are available and `n % 8 == 0`
/// (i.e. [`avx2_cols`] returned true).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
unsafe fn matmul_rows_avx2_dispatch(
    a: &[f32],
    strides: (usize, usize),
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    row_start: usize,
    row_end: usize,
) {
    let mut col0 = 0;
    while col0 < n {
        let blocks = ((n - col0) / 8).min(8);
        let run = match blocks {
            1 => matmul_rows_avx2::<1>,
            2 => matmul_rows_avx2::<2>,
            3 => matmul_rows_avx2::<3>,
            4 => matmul_rows_avx2::<4>,
            5 => matmul_rows_avx2::<5>,
            6 => matmul_rows_avx2::<6>,
            7 => matmul_rows_avx2::<7>,
            _ => matmul_rows_avx2::<8>,
        };
        run(a, strides, b, c, k, n, col0, row_start, row_end);
        col0 += blocks * 8;
    }
}

/// Inner row kernel: accumulates `b` rows into each output row in
/// strictly ascending `p` order — every element sums its terms in the
/// same fixed order regardless of chunking or instruction width, so the
/// result is bit-identical across dispatch paths and worker counts.
fn matmul_rows(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    row_start: usize,
    row_end: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_cols(n) {
        // SAFETY: avx2_cols verified the CPU feature and lane count.
        return unsafe { matmul_rows_avx2_dispatch(a, (k, 1), b, c, k, n, row_start, row_end) };
    }
    for i in row_start..row_end {
        let c_row = &mut c[(i - row_start) * n..(i - row_start + 1) * n];
        let a_row = &a[i * k..(i + 1) * k];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                *c_v += a_ip * b_v;
            }
        }
    }
}

/// Output rows `row_start..row_end` of `a (k x m)ᵀ @ b (k x n)`:
/// accumulates rank-1 contributions over the `k` input rows in fixed
/// ascending order, so chunk boundaries never change any element's
/// summation order.
fn matmul_tn_rows(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    row_start: usize,
    row_end: usize,
) {
    let m = a.len().checked_div(k).unwrap_or(0);
    #[cfg(target_arch = "x86_64")]
    if avx2_cols(n) {
        // SAFETY: avx2_cols verified the CPU feature and lane count.
        return unsafe { matmul_rows_avx2_dispatch(a, (1, m), b, c, k, n, row_start, row_end) };
    }
    for i in 0..k {
        let a_row = &a[i * m..(i + 1) * m];
        let b_row = &b[i * n..(i + 1) * n];
        for p in row_start..row_end {
            let a_ip = a_row[p];
            if a_ip == 0.0 {
                continue;
            }
            let c_row = &mut c[(p - row_start) * n..(p - row_start + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                *c_v += a_ip * b_v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_manual() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_fn(5, 5, |i, j| (i * 5 + j) as f32);
        assert_eq!(a.matmul(&Tensor::eye(5)), a);
        assert_eq!(Tensor::eye(5).matmul(&a), a);
    }

    #[test]
    fn large_matmul_parallel_matches_serial() {
        let a = Tensor::from_fn(300, 130, |i, j| ((i * 31 + j * 7) % 13) as f32 - 6.0);
        let b = Tensor::from_fn(130, 220, |i, j| ((i * 17 + j * 3) % 11) as f32 - 5.0);
        let c = a.matmul(&b);
        // Serial reference.
        let mut reference = Tensor::zeros(300, 220);
        for i in 0..300 {
            for p in 0..130 {
                for j in 0..220 {
                    let v = reference.at(i, j) + a.at(i, p) * b.at(p, j);
                    reference.set(i, j, v);
                }
            }
        }
        assert_eq!(c, reference);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_fn(9, 4, |i, j| ((i * 5 + j * 3) % 7) as f32 - 3.0 + 0.125);
        let b = Tensor::from_fn(9, 6, |i, j| ((i * 11 + j * 13) % 10) as f32 - 4.0 + 0.375);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn large_transposed_kernels_parallel_match_serial() {
        // Big enough to clear PAR_FLOP_THRESHOLD so pool chunking runs.
        let a = Tensor::from_fn(300, 130, |i, j| ((i * 31 + j * 7) % 13) as f32 - 6.0 + 0.25);
        let g = Tensor::from_fn(300, 220, |i, j| ((i * 17 + j * 3) % 11) as f32 - 5.0 + 0.5);
        assert_eq!(a.matmul_tn(&g), a.transpose().matmul(&g));
    }

    #[test]
    fn matmul_tn_fills_every_column_of_wide_outputs() {
        // Wider than the 64 columns one register tile holds, so the
        // vector path must tile columns; half the activations are zero.
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for n in [72, 128, 136] {
            let a = Tensor::from_fn(37, 20, |i, j| {
                (((i * 7 + j * 3) % 9) as f32 - 4.0).max(0.0) * 0.375
            });
            let b = Tensor::from_fn(37, n, |i, j| ((i * 13 + j * 5) % 17) as f32 * 0.25 - 2.1);
            let want = a.transpose().matmul(&b);
            assert_eq!(bits(&a.matmul_tn(&b)), bits(&want), "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "matmul_tn shape mismatch")]
    fn matmul_tn_shape_mismatch_panics() {
        let _ = Tensor::zeros(2, 3).matmul_tn(&Tensor::zeros(4, 5));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_fn(3, 7, |i, j| (i + j * j) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn hstack_and_vstack_shapes() {
        let a = Tensor::ones(2, 3);
        let b = Tensor::zeros(2, 2);
        let h = a.hstack(&b);
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h.at(0, 2), 1.0);
        assert_eq!(h.at(0, 3), 0.0);
        let c = Tensor::zeros(4, 3);
        assert_eq!(a.vstack(&c).shape(), (6, 3));
    }

    #[test]
    fn col_and_row_sums() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.col_sum(), Tensor::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(a.row_sum(), Tensor::from_col(&[3.0, 7.0]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_col(&[1.0, -2.0]);
        assert_eq!(a.map(f32::abs), Tensor::from_col(&[1.0, 2.0]));
        let b = Tensor::from_col(&[3.0, 4.0]);
        assert_eq!(a.zip_map(&b, |x, y| x * y), Tensor::from_col(&[3.0, -8.0]));
    }
}

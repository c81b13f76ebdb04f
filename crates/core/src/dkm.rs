//! Differentiable K-Means weight clustering (the DKM layer the paper makes
//! memory-efficient).
//!
//! Weights attend to centroids through a softmax over negative squared
//! distances (the attention map of Fig. 1). Centroids are iteratively
//! refined Lloyd-style with gradients disabled, then one final iteration
//! runs differentiably so the task loss shapes the clustering through the
//! attention map. The clustered weight is `Ŵ = A·C*`.
//!
//! When the source weights are 16-bit and clustering is scalar, the layer
//! annotates the attention map with the weights' bit patterns so the eDKM
//! hooks can uniquify it (Section 2.2).

use crate::palettize::{GroupedPalettized, PalettizedTensor};
use crate::uniquify::{self, RowKeys};
use edkm_autograd::{save_tensor, Var};
use edkm_tensor::{ops as t, runtime, DType, Device, Tensor};
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Centroid initialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DkmInit {
    /// Quantile midpoints of the weight distribution (deterministic; the
    /// default — matches how palettization toolchains seed k-means).
    Quantile,
    /// k-means++ style greedy farthest-point seeding (deterministic given
    /// the seed).
    KmeansPlusPlus {
        /// Seed for the first centroid pick.
        seed: u64,
    },
    /// `k` evenly spaced points across the weight range.
    UniformRange,
}

/// DKM hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DkmConfig {
    /// Palette bit width; `k = 2^bits` centroids.
    pub bits: u8,
    /// Clustering dimensionality (1 = scalar clustering, the paper's
    /// setting; >1 clusters d-dimensional weight blocks).
    pub cluster_dim: usize,
    /// Softmax temperature τ (scale-free: distances are normalized by the
    /// weight variance).
    pub temperature: f32,
    /// Maximum centroid-update iterations.
    pub iters: usize,
    /// Early-stop tolerance on centroid movement.
    pub tol: f32,
    /// Centroid initialization strategy.
    pub init: DkmInit,
}

impl DkmConfig {
    /// Default configuration for a given bit width (scalar clustering,
    /// τ = 0.05, up to 8 iterations, quantile init).
    pub fn with_bits(bits: u8) -> Self {
        assert!((1..=8).contains(&bits), "bits must be in 1..=8");
        DkmConfig {
            bits,
            cluster_dim: 1,
            temperature: 0.05,
            iters: 8,
            tol: 1e-4,
            init: DkmInit::Quantile,
        }
    }

    /// Vector-clustering configuration: `2^bits` centroids of dimension
    /// `dim`, i.e. `bits / dim` effective bits per weight. With `dim = 2`
    /// and 4-bit palettes this reaches 2 bits/weight — below what scalar
    /// clustering can express (the multi-dimensional extension of the DKM
    /// paper).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=8` or `dim` is 0.
    pub fn with_vector(bits: u8, dim: usize) -> Self {
        assert!(dim >= 1, "cluster_dim must be >= 1");
        DkmConfig {
            cluster_dim: dim,
            ..DkmConfig::with_bits(bits)
        }
    }

    /// Number of centroids `|C| = 2^bits`.
    pub fn k(&self) -> usize {
        1usize << self.bits
    }

    /// Index bits amortized over the weights of one block:
    /// `bits / cluster_dim` (2.0 for 4-bit palettes of 2-element blocks).
    /// The palette (LUT) cost is excluded, matching how the paper quotes
    /// "3 bit/weight".
    pub fn effective_bits_per_weight(&self) -> f64 {
        f64::from(self.bits) / self.cluster_dim as f64
    }
}

impl Default for DkmConfig {
    fn default() -> Self {
        DkmConfig::with_bits(3) // the paper's headline configuration
    }
}

/// Result of clustering one weight tensor.
#[derive(Debug)]
pub struct DkmOutput {
    /// Differentiable soft-clustered weights, same shape as the input.
    pub soft: Var,
    /// Final centroids `[k, cluster_dim]`.
    pub centroids: Tensor,
    /// Lloyd iterations actually run before the differentiable one.
    pub iterations_run: usize,
}

/// The Lloyd iterations of one weight — the detached ones and the forward
/// of the final, differentiable one — computed over its *distinct* rows.
///
/// Rows with equal 16-bit patterns have identical attention rows (the fact
/// uniquification rests on), so each step computes one softmax row — and
/// its products `a·w` — per distinct row, then accumulates `Σ a·w` and
/// `Σ a` over the weight rows in their original order. Every sum therefore
/// adds the same terms in the same order as the dense `neg_sqdist →
/// mul_scalar → softmax_lastdim → Aᵀ·W / (ΣA + ε)` chain, and the centroids
/// are bit-identical to it. The simulated clock is charged the dense chain's
/// FLOPs: it models the GPU kernels, not this host-side shortcut.
struct Lloyd<'a> {
    /// The weight as `[n, d]` rows.
    w: &'a [f32],
    /// `[u, d]` distinct rows in first-occurrence order (all `n` rows when
    /// the weight is not deduplicated).
    rows: Cow<'a, [f32]>,
    /// `rows` [`widen`]ed.
    rows64: Vec<f64>,
    /// Weight row → distinct row; `None` when rows are not deduplicated.
    ids: Option<Vec<u32>>,
    k: usize,
    d: usize,
    scale: f32,
    device: Device,
    /// Per distinct row, the current step's terms: `[k, d]` products
    /// `a_j · w`, then the `k` attention values `a_j`.
    terms: Vec<f32>,
    /// Per block of `per_block` centroids: their `Σ a·w` rows, then their
    /// `Σ a` values.
    acc: Vec<f32>,
    /// Centroids per accumulation block (one block per worker).
    per_block: usize,
}

impl<'a> Lloyd<'a> {
    /// Lloyd state for `[n, d]` rows `w`, deduplicated by `keys` (one per
    /// row) when given.
    fn new(
        w: &'a [f32],
        keys: Option<&[u64]>,
        k: usize,
        d: usize,
        scale: f32,
        device: Device,
    ) -> Self {
        let (rows, ids) = match keys {
            Some(keys) => {
                let (rows, ids) = distinct_rows(w, keys, d);
                (Cow::Owned(rows), Some(ids))
            }
            None => (Cow::Borrowed(w), None),
        };
        let mut rows64 = vec![0.0; rows.len()];
        widen(&rows, &mut rows64);
        let n = w.len() / d;
        // Split the accumulation by centroid only where the dense kernels
        // go parallel; a centroid's sums never straddle two workers, so the
        // result is independent of the thread count.
        let per_block = if n * k * d >= t::PAR_WORK_THRESHOLD && k > 1 {
            k.div_ceil(rayon::current_num_threads())
        } else {
            k
        };
        Lloyd {
            terms: vec![0.0; rows.len() / d * k * (d + 1)],
            acc: vec![0.0; k * (d + 1)],
            w,
            rows,
            rows64,
            ids,
            k,
            d,
            scale,
            device,
            per_block,
        }
    }

    /// One Lloyd update: the centroids `c` attend over the weight and
    /// `c_new` receives the attention-weighted means.
    fn step(&mut self, c: &[f32], c_new: &mut [f32]) {
        self.attend(c);
        let (num, den) = self.sums();
        for ((o, nj), &dj) in c_new.chunks_mut(self.d).zip(num.chunks(self.d)).zip(&den) {
            for (o, &v) in o.iter_mut().zip(nj) {
                *o = v / dj;
            }
        }
    }

    /// The attention terms of every distinct row for centroids `c`, and
    /// their sums `Σ a·w` / `Σ a` over the weight rows.
    fn attend(&mut self, c: &[f32]) {
        let (k, d, scale) = (self.k, self.d, self.scale);
        let n = self.w.len() / d;
        charge_dense_step(n, k, d, self.device);

        let (rows, rows64) = (&self.rows, &self.rows64);
        let fill = |r: usize, out: &mut [f32]| {
            let span = r * d..(r + 1) * d;
            row_terms(&rows[span.clone()], &rows64[span], c, scale, out);
        };
        let (u, stride) = (rows.len() / d, k * (d + 1));
        if u * k * d >= t::PAR_WORK_THRESHOLD && u > 1 {
            self.terms
                .par_chunks_mut(stride)
                .enumerate()
                .for_each(|(r, out)| fill(r, out));
        } else {
            for (r, out) in self.terms.chunks_mut(stride).enumerate() {
                fill(r, out);
            }
        }

        let (terms, ids, per) = (&self.terms, self.ids.as_deref(), self.per_block);
        if per < k {
            self.acc
                .par_chunks_mut(per * (d + 1))
                .enumerate()
                .for_each(|(b, block)| accumulate(terms, ids, n, k, d, b * per, block));
        } else {
            accumulate(terms, ids, n, k, d, 0, &mut self.acc);
        }
    }

    /// The last step's `[k, d]` numerators `Σ a·w` and `[k]` denominators
    /// `ΣA + ε` (`add_scalar(ΣA, 1e-8)`, as the dense chain computes them).
    fn sums(&self) -> (Vec<f32>, Vec<f32>) {
        let d = self.d;
        let mut num = Vec::with_capacity(self.k * d);
        let mut den = Vec::with_capacity(self.k);
        for block in self.acc.chunks(self.per_block * (d + 1)) {
            let (nb, db) = block.split_at(block.len() / (d + 1) * d);
            num.extend_from_slice(nb);
            den.extend(db.iter().map(|&v| v + 1e-8));
        }
        (num, den)
    }

    /// Distinct row of weight row `i`.
    fn row_of(&self, i: usize) -> usize {
        self.ids.as_ref().map_or(i, |ids| ids[i] as usize)
    }

    /// The last step's attention map `A` as dense `[n, k]` rows, scattered
    /// from the distinct rows.
    fn attention(&self) -> Vec<f32> {
        let (k, stride) = (self.k, self.k * (self.d + 1));
        let n = self.w.len() / self.d;
        let mut a = vec![0.0f32; n * k];
        for (i, out) in a.chunks_exact_mut(k).enumerate() {
            out.copy_from_slice(&self.terms[self.row_of(i) * stride + k * self.d..][..k]);
        }
        a
    }

    /// The soft weights `A·C*` as `[n, d]` rows: one attention-weighted
    /// centroid mix per distinct row (`matmul`'s ascending-`j` sum), then
    /// scattered.
    fn soft(&self, c_star: &[f32]) -> Vec<f32> {
        let (k, d, stride) = (self.k, self.d, self.k * (self.d + 1));
        let u = self.rows.len() / d;
        let mut c64 = vec![0.0; k * d];
        widen(c_star, &mut c64);
        let mut mixed = vec![0.0f32; u * d];
        for (r, out) in mixed.chunks_exact_mut(d).enumerate() {
            let a = &self.terms[r * stride + k * d..][..k];
            for (&aj, cj) in a.iter().zip(c64.chunks_exact(d)) {
                for (o, &cv) in out.iter_mut().zip(cj) {
                    *o += mul(aj, cv);
                }
            }
        }
        if self.ids.is_none() {
            return mixed;
        }
        let n = self.w.len() / d;
        let mut soft = vec![0.0f32; n * d];
        for (i, out) in soft.chunks_exact_mut(d).enumerate() {
            out.copy_from_slice(&mixed[self.row_of(i) * d..][..d]);
        }
        soft
    }

    /// Quantile-midpoint centroids from the sorted distinct values and their
    /// counts — the values a stable argsort of all `n` rows would pick.
    /// `None` (use the argsort) unless the rows are deduplicated scalars
    /// free of NaN.
    fn sorted_quantiles(&self) -> Option<Vec<f32>> {
        let ids = self.ids.as_ref()?;
        let (rows, n, k) = (&self.rows, ids.len(), self.k);
        if self.d != 1 || n == 0 || rows.iter().any(|v| v.is_nan()) {
            return None;
        }
        let mut counts = vec![0usize; rows.len()];
        for &r in ids {
            counts[r as usize] += 1;
        }
        // Distinct non-NaN patterns have distinct values except ±0, which
        // compare equal; the argsort orders those by index (below).
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_unstable_by(|&a, &b| rows[a].total_cmp(&rows[b]));
        let mut out = Vec::with_capacity(k);
        let (mut g, mut start) = (0, 0);
        for j in 0..k {
            let pos = ((((j as f64 + 0.5) / k as f64) * n as f64) as usize).min(n - 1);
            while start + counts[order[g]] <= pos {
                start += counts[order[g]];
                g += 1;
            }
            let v = rows[order[g]];
            out.push(if v == 0.0 {
                // The zero group holds both signs in index order: take the
                // sign of the zero at this rank.
                let negatives: usize = (0..rows.len())
                    .filter(|&r| rows[r] < 0.0)
                    .map(|r| counts[r])
                    .sum();
                let rank = pos - negatives;
                *self
                    .w
                    .iter()
                    .filter(|&&x| x == 0.0)
                    .nth(rank)
                    .expect("rank inside the zero group")
            } else {
                v
            });
        }
        Some(out)
    }
}

/// Charge the simulated clock what one dense Lloyd step costs, op by op in
/// the dense chain's order (`neg_sqdist`, `mul_scalar`, `softmax_lastdim`,
/// `matmul(Aᵀ, W)`, `sum_axis`, `add_scalar`, `div`).
fn charge_dense_step(n: usize, k: usize, d: usize, device: Device) {
    runtime::record_compute(3.0 * (n * k * d) as f64, device);
    runtime::record_compute((n * k) as f64, device);
    runtime::record_compute(4.0 * (n * k) as f64, device);
    runtime::record_compute(2.0 * k as f64 * d as f64 * n as f64, device);
    runtime::record_compute((n * k) as f64, device);
    runtime::record_compute(k as f64, device);
    runtime::record_compute((k * d) as f64, device);
}

/// `f32` values as `f64`s the optimizer cannot tell came from `f32`s.
///
/// On x86 an `f32` multiply with a subnormal operand or result takes a
/// microcode assist (~60 ns), and a sharp attention map holds many tiny
/// values: about 4% of its entries are subnormal in `train-edkm`. The exact
/// `f64` product of two `f32`s rounded once to `f32` ([`mul`]) is the same
/// number as the `f32` product, and neither the `f64` multiply nor the
/// conversions take an assist. One factor must be opaque, though: when both
/// are visibly widened `f32`s the compiler narrows the product back into an
/// `f32` multiply.
fn widen(src: &[f32], dst: &mut [f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f64::from(s);
    }
    std::hint::black_box(dst);
}

/// `x · y` for an `f32` `y` that [`widen`] (or [`std::hint::black_box`])
/// turned into an `f64`: bit-identical to the `f32` product.
#[inline(always)]
fn mul(x: f32, y: f64) -> f32 {
    (f64::from(x) * y) as f32
}

/// One distinct row's terms: the softmax over `-‖row − c_j‖² · scale` for
/// every centroid `j` (with the operation order of `neg_sqdist`,
/// `mul_scalar` and `softmax_lastdim`) into the last `k` slots of `out`,
/// and the products `a_j · row` into the first `k · d`. `row64` is `row`
/// [`widen`]ed.
fn row_terms(row: &[f32], row64: &[f64], c: &[f32], scale: f32, out: &mut [f32]) {
    let (prods, out) = out.split_at_mut(out.len() / (row.len() + 1) * row.len());
    for (o, cj) in out.iter_mut().zip(c.chunks_exact(row.len())) {
        let mut acc = 0.0f32;
        for (&wv, &cv) in row.iter().zip(cj) {
            let diff = wv - cv;
            acc += diff * diff;
        }
        *o = -acc * scale;
    }
    let mx = out.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for o in out.iter_mut() {
        *o = (*o - mx).exp();
        sum += *o;
    }
    let inv = std::hint::black_box(f64::from(1.0 / sum));
    for o in out.iter_mut() {
        *o = mul(*o, inv);
    }
    for (p, &a) in prods.chunks_exact_mut(row.len()).zip(out.iter()) {
        for (p, &wv) in p.iter_mut().zip(row64) {
            *p = mul(a, wv);
        }
    }
}

/// `Σ_i a_ij · w_i` and `Σ_i a_ij` for the centroids `j0..` of `block`, over
/// the `n` weight rows `i` in order, from their distinct rows' `terms`.
fn accumulate(
    terms: &[f32],
    ids: Option<&[u32]>,
    n: usize,
    k: usize,
    d: usize,
    j0: usize,
    block: &mut [f32],
) {
    let jn = block.len() / (d + 1);
    block.fill(0.0);
    let (num, den) = block.split_at_mut(jn * d);
    let stride = k * (d + 1);
    for i in 0..n {
        let row = &terms[ids.map_or(i, |ids| ids[i] as usize) * stride..][..stride];
        for (o, &p) in num.iter_mut().zip(&row[j0 * d..(j0 + jn) * d]) {
            *o += p;
        }
        for (o, &a) in den.iter_mut().zip(&row[k * d + j0..][..jn]) {
            *o += a;
        }
    }
}

/// Deduplicate `[n, d]` rows by their keys: the distinct rows in
/// first-occurrence order and each row's distinct-row id. Scalar keys (one
/// 16-bit pattern) index a 2^16-slot table; block keys go through a map.
fn distinct_rows(w: &[f32], keys: &[u64], d: usize) -> (Vec<f32>, Vec<u32>) {
    let mut rows = Vec::new();
    let mut new_row = |i: usize| {
        let r = (rows.len() / d) as u32;
        rows.extend_from_slice(&w[i * d..(i + 1) * d]);
        r
    };
    let ids = if d == 1 {
        let mut slot = vec![u32::MAX; 1 << 16];
        keys.iter()
            .enumerate()
            .map(|(i, &key)| {
                let s = &mut slot[key as usize];
                if *s == u32::MAX {
                    *s = new_row(i);
                }
                *s
            })
            .collect()
    } else {
        let mut slot = HashMap::new();
        keys.iter()
            .enumerate()
            .map(|(i, &key)| *slot.entry(key).or_insert_with(|| new_row(i)))
            .collect()
    };
    (rows, ids)
}

/// The final, differentiable DKM iteration as one autograd node: soft
/// weights `A·C*` (`[n, d]`) and the centroids `C* = Aᵀ·W / (ΣA + ε)` for
/// the centroids `c`, where `A` attends the rows of `w2` (`lloyd`'s weight)
/// over `c`.
///
/// The node stands for the dense tape chain `neg_sqdist → mul_scalar →
/// softmax → Aᵀ·W → sum_axis → add_scalar → div → A·C*` and reproduces it
/// bit for bit: the forward is one more [`Lloyd`] step over the distinct
/// rows, the backward one pass over the `k` centroids and one fused pass
/// per weight row (see [`iteration_backward`]). It saves the tensors the
/// chain saved — `w2`, `c`, `A` (annotated with `keys` first), `Aᵀ`, `w2`,
/// `num`, `den`, `A`, `C*`, in that order — and hands them back in the
/// order the chain's backward unpacked them, so the saved-tensor hooks see
/// the same pack and unpack streams. The simulated clock is charged the
/// chain's ops, forward and backward.
fn dkm_iteration(
    w2: &Var,
    lloyd: &mut Lloyd<'_>,
    c: &[f32],
    keys: Option<RowKeys>,
) -> (Var, Tensor) {
    let (k, d, scale, device) = (lloyd.k, lloyd.d, lloyd.scale, lloyd.device);
    let n = lloyd.w.len() / d;
    let mut c_star = vec![0.0f32; k * d];
    lloyd.step(c, &mut c_star);
    let (num, den) = lloyd.sums();
    let soft = lloyd.soft(&c_star);
    runtime::record_compute(2.0 * n as f64 * d as f64 * k as f64, device); // A·C*

    let tensor =
        |data: Vec<f32>, shape: &[usize]| Tensor::from_vec(data, shape, DType::F32, device);
    let a = tensor(lloyd.attention(), &[n, k]);
    if let Some(keys) = keys {
        uniquify::annotate(a.storage_id(), Arc::new(keys));
    }
    let c_star = tensor(c_star, &[k, d]);
    let w_saved = save_tensor(w2.value());
    let c_saved = save_tensor(&tensor(c.to_vec(), &[k, d]));
    let a_saved = save_tensor(&a);
    let at_saved = save_tensor(&a.t());
    let w_again = save_tensor(w2.value());
    let num_saved = save_tensor(&tensor(num, &[k, d]));
    let den_saved = save_tensor(&tensor(den, &[k, 1]));
    let a_again = save_tensor(&a);
    let c_star_saved = save_tensor(&c_star);
    // The chain's backward unpacked `A·C*`'s saves first, `neg_sqdist`'s
    // last.
    let saved = vec![
        a_again,
        c_star_saved,
        num_saved,
        den_saved,
        at_saved,
        w_again,
        a_saved,
        w_saved,
        c_saved,
    ];
    let soft = Var::custom(
        tensor(soft, &[n, d]),
        "dkm_iteration",
        vec![w2.clone()],
        saved,
        Box::new(move |g, s| vec![Some(iteration_backward(g, s, scale))]),
    );
    (soft, c_star)
}

/// Charge the simulated clock what the dense chain's backward costs, op by
/// op in the order the tape ran them, gradient accumulations included.
fn charge_dense_backward(n: usize, k: usize, d: usize, device: Device) {
    let (nk, nd, kd) = ((n * k) as f64, (n * d) as f64, (k * d) as f64);
    let mm = 2.0 * nk * d as f64;
    let charge = |ops: &[f64]| {
        for &flops in ops {
            runtime::record_compute(flops, device);
        }
    };
    // A·C*: dA = G·C*ᵀ and dC* = Aᵀ·G.
    charge(&[mm, mm]);
    // div: dnum = dC* / den, then dden = −dC*·num / (den·den), summed over
    // the d columns when there is more than one.
    charge(&[kd, k as f64, kd, kd, kd]);
    if d != 1 {
        charge(&[kd]);
    }
    // Aᵀ·W: dAᵀ = dnum·Wᵀ and dW = A·dnum, then dA += dAᵀᵀ.
    charge(&[mm, mm, nk]);
    // sum_axis: dden broadcast to [n, k], then dA += it.
    charge(&[nk, nk]);
    // softmax (g·s, row sums, g − rowsum, s·…), then mul_scalar.
    charge(&[nk, nk, nk, nk, nk]);
    // neg_sqdist: dW = −2 (rowsum(g)·w − g·c), then the discarded
    // dc = 2 (gᵀ·w − colsum(g)·c).
    charge(&[nk, nd, mm, nd, nd]);
    charge(&[nk, mm, kd, kd, kd]);
    // dW += the neg_sqdist term (the two uses of `w2`).
    charge(&[nd]);
}

/// The dense chain's VJP for `w2`, fused: `dC* = Aᵀ·G` summed over the rows
/// in order (split across workers by centroid block, like [`accumulate`]),
/// `dnum`/`dden` from it, then one independent pass per weight row that
/// adds `dA`'s three contributions in the tape's order, applies the
/// softmax VJP, the logit scale and the `neg_sqdist` VJP, and adds the
/// `A·dnum` term. Every sum runs in the tape's order, so the result equals
/// the tape bit for bit, and no `[n, k]` temporary is allocated. `saved`
/// are [`dkm_iteration`]'s saves in unpack order.
fn iteration_backward(g: &Tensor, saved: &[Tensor], scale: f32) -> Tensor {
    let [a, c_star, num, den, _, w, _, _, c] = saved else {
        unreachable!("dkm_iteration saves nine tensors")
    };
    let [n, d] = [w.shape()[0], w.shape()[1]];
    let k = c.shape()[0];
    let device = g.device();
    charge_dense_backward(n, k, d, device);
    let (c, num, den, c_star) = (c.to_vec(), num.to_vec(), den.to_vec(), c_star.to_vec());
    let par = n * k * d >= t::PAR_WORK_THRESHOLD;

    let mut d_c_star = vec![0.0f32; k * d];
    g.with_data(|g| {
        a.with_data(|a| {
            let per = if par && k > 1 {
                k.div_ceil(rayon::current_num_threads())
            } else {
                k
            };
            let block = |j0: usize, out: &mut [f32]| {
                // Summed as `[d, jn]` so the centroids of one row run in
                // lanes, then written back as `[jn, d]`.
                let jn = out.len() / d;
                let (mut sums, mut g64) = (vec![0.0f32; d * jn], vec![0.0; d]);
                for (ar, gr) in a.chunks_exact(k).zip(g.chunks_exact(d)) {
                    widen(gr, &mut g64);
                    for (sums, &gv) in sums.chunks_exact_mut(jn).zip(&g64) {
                        for (o, &av) in sums.iter_mut().zip(&ar[j0..j0 + jn]) {
                            *o += mul(av, gv);
                        }
                    }
                }
                for (jj, o) in out.chunks_exact_mut(d).enumerate() {
                    for (p, o) in o.iter_mut().enumerate() {
                        *o = sums[p * jn + jj];
                    }
                }
            };
            if per < k {
                d_c_star
                    .par_chunks_mut(per * d)
                    .enumerate()
                    .for_each(|(b, out)| block(b * per, out));
            } else {
                block(0, &mut d_c_star);
            }
        })
    });

    // `div`'s VJP: dnum = dC* / den, dden = Σ_d −(dC*·num / (den·den)).
    let d_num: Vec<f32> = d_c_star
        .chunks_exact(d)
        .zip(&den)
        .flat_map(|(row, &dj)| row.iter().map(move |&v| v / dj))
        .collect();
    let d_den: Vec<f32> = d_c_star
        .chunks_exact(d)
        .zip(num.chunks_exact(d))
        .zip(&den)
        .map(|((gr, nr), &dj)| {
            let b2 = dj * dj;
            let mut terms = gr.iter().zip(nr).map(|(&gv, &nv)| -(gv * nv / b2));
            if d == 1 {
                // No reduction over a size-1 axis: the term as is.
                terms.next().expect("d = 1")
            } else {
                terms.fold(0.0, |acc, v| acc + v)
            }
        })
        .collect();

    let (mut c64, mut d_num64) = (vec![0.0; k * d], vec![0.0; k * d]);
    widen(&c, &mut c64);
    widen(&d_num, &mut d_num64);
    let row_pass = RowPass {
        k,
        d,
        c_star: &c_star,
        d_num: &d_num,
        d_den: &d_den,
        c64: &c64,
        d_num64: &d_num64,
        scale64: std::hint::black_box(f64::from(scale)),
    };
    let mut dw = vec![0.0f32; n * d];
    g.with_data(|g| {
        w.with_data(|w| {
            a.with_data(|a| {
                if par && n > 1 {
                    let per = n.div_ceil(rayon::current_num_threads());
                    dw.par_chunks_mut(per * d)
                        .enumerate()
                        .for_each(|(b, out)| row_pass.run(g, w, a, b * per, out));
                } else {
                    row_pass.run(g, w, a, 0, &mut dw);
                }
            })
        })
    });
    Tensor::from_vec(dw, &[n, d], DType::F32, device)
}

/// Weight rows the per-row pass of [`iteration_backward`] carries side by
/// side, one per SIMD lane. Each lane runs its own row's operations in the
/// tape's order, so the lanes change nothing but the speed.
const LANES: usize = 8;

/// The per-row pass of [`iteration_backward`]: everything it reads besides
/// `G`, `W` and `A`.
struct RowPass<'a> {
    k: usize,
    d: usize,
    c_star: &'a [f32],
    d_num: &'a [f32],
    d_den: &'a [f32],
    /// `c` [`widen`]ed.
    c64: &'a [f64],
    /// `d_num` [`widen`]ed.
    d_num64: &'a [f64],
    /// The logit scale, opaque like a [`widen`]ed value.
    scale64: f64,
}

impl RowPass<'_> {
    /// `dW` rows `i0..` into `out` (`[rows, d]`), from the `[n, d]` upstream
    /// gradient `g`, weight `w` and `[n, k]` attention map `a`.
    fn run(&self, g: &[f32], w: &[f32], a: &[f32], i0: usize, out: &mut [f32]) {
        let (k, d) = (self.k, self.d);
        // Lane-major copies of one block of rows: `[j][lane]` and `[p][lane]`.
        let mut a64 = vec![[0.0f64; LANES]; k];
        let (mut gl, mut wl) = (vec![[0.0f32; LANES]; d], vec![[0.0f32; LANES]; d]);
        let (mut da, mut dl) = (vec![[0.0f32; LANES]; k], vec![[0.0f32; LANES]; k]);
        for (b, out) in out.chunks_mut(LANES * d).enumerate() {
            let (i, lanes) = (i0 + b * LANES, out.len() / d);
            for l in 0..LANES {
                // Lanes past the last row compute on zeros and are dropped.
                let row = (l < lanes).then_some(i + l);
                for (j, x) in a64.iter_mut().enumerate() {
                    x[l] = row.map_or(0.0, |i| f64::from(a[i * k + j]));
                }
                for (p, (gx, wx)) in gl.iter_mut().zip(&mut wl).enumerate() {
                    gx[l] = row.map_or(0.0, |i| g[i * d + p]);
                    wx[l] = row.map_or(0.0, |i| w[i * d + p]);
                }
            }
            std::hint::black_box(&mut a64); // see `widen`

            // dA = G·C*ᵀ + dnum·Wᵀ + dden, added in that order.
            for (j, da) in da.iter_mut().enumerate() {
                let (mut from_soft, mut from_num) = ([0.0f32; LANES], [0.0f32; LANES]);
                for p in 0..d {
                    let (cv, nv) = (self.c_star[j * d + p], self.d_num[j * d + p]);
                    for l in 0..LANES {
                        from_soft[l] += gl[p][l] * cv;
                        from_num[l] += nv * wl[p][l];
                    }
                }
                for l in 0..LANES {
                    da[l] = from_soft[l] + from_num[l] + self.d_den[j];
                }
            }
            // Softmax VJP, then the logit scale.
            let mut row_sum = [0.0f32; LANES];
            for (dv, av) in da.iter().zip(&a64) {
                for l in 0..LANES {
                    row_sum[l] += mul(dv[l], av[l]);
                }
            }
            for ((dl, dv), av) in dl.iter_mut().zip(&da).zip(&a64) {
                for l in 0..LANES {
                    dl[l] = mul(mul(dv[l] - row_sum[l], av[l]), self.scale64);
                }
            }
            // neg_sqdist's VJP, plus the A·dnum term of Aᵀ·W's.
            let mut logit_sum = [0.0f32; LANES];
            for dl in &dl {
                for l in 0..LANES {
                    logit_sum[l] += dl[l];
                }
            }
            for p in 0..d {
                let (mut gc, mut from_a) = ([0.0f32; LANES], [0.0f32; LANES]);
                for (j, (dl, av)) in dl.iter().zip(&a64).enumerate() {
                    let (cv, nv) = (self.c64[j * d + p], self.d_num64[j * d + p]);
                    for l in 0..LANES {
                        gc[l] += mul(dl[l], cv);
                        from_a[l] += (av[l] * nv) as f32;
                    }
                }
                for (l, o) in out.chunks_exact_mut(d).enumerate() {
                    o[p] = from_a[l] + (logit_sum[l] * wl[p][l] - gc[l]) * -2.0;
                }
            }
        }
    }
}

/// The train-time weight clustering layer.
#[derive(Debug, Clone)]
pub struct DkmLayer {
    config: DkmConfig,
}

impl DkmLayer {
    /// Layer with the given configuration.
    pub fn new(config: DkmConfig) -> Self {
        DkmLayer { config }
    }

    /// The configuration.
    pub fn config(&self) -> &DkmConfig {
        &self.config
    }

    /// Centroid init per the configured [`DkmInit`] strategy over `[n, d]`
    /// rows `data`; `lloyd` supplies sorted distinct values for the
    /// quantile init when it has them.
    fn init_centroids(&self, data: &[f32], lloyd: Option<&Lloyd<'_>>) -> Vec<f32> {
        let d = self.config.cluster_dim;
        let k = self.config.k();
        let n = data.len() / d;
        match self.config.init {
            DkmInit::Quantile => {
                if let Some(c) = lloyd.and_then(Lloyd::sorted_quantiles) {
                    return c;
                }
                // Sort row indices by first component; sample quantile
                // midpoints.
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| {
                    data[a * d]
                        .partial_cmp(&data[b * d])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut c = Vec::with_capacity(k * d);
                for j in 0..k {
                    let pos = (((j as f64 + 0.5) / k as f64) * n as f64) as usize;
                    let row = order[pos.min(n - 1)];
                    c.extend_from_slice(&data[row * d..(row + 1) * d]);
                }
                c
            }
            DkmInit::KmeansPlusPlus { seed } => {
                // Greedy farthest-point: start from a seeded row, then pick
                // the row with maximal distance to its nearest centroid.
                let mut c: Vec<f32> = Vec::with_capacity(k * d);
                let first = (seed as usize) % n;
                c.extend_from_slice(&data[first * d..(first + 1) * d]);
                let mut nearest = vec![f32::INFINITY; n];
                for _ in 1..k {
                    let last = &c[c.len() - d..];
                    let mut best = 0usize;
                    let mut best_d = -1.0f32;
                    for i in 0..n {
                        let row = &data[i * d..(i + 1) * d];
                        let dist: f32 =
                            row.iter().zip(last).map(|(&a, &b)| (a - b) * (a - b)).sum();
                        if dist < nearest[i] {
                            nearest[i] = dist;
                        }
                        if nearest[i] > best_d {
                            best_d = nearest[i];
                            best = i;
                        }
                    }
                    c.extend_from_slice(&data[best * d..(best + 1) * d]);
                }
                c
            }
            DkmInit::UniformRange => {
                // Per component: k evenly spaced values over [min, max].
                let mut c = vec![0.0f32; k * d];
                for comp in 0..d {
                    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                    for i in 0..n {
                        let v = data[i * d + comp];
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    for j in 0..k {
                        let t = (j as f32 + 0.5) / k as f32;
                        c[j * d + comp] = lo + t * (hi - lo);
                    }
                }
                c
            }
        }
    }

    /// Attention sharpness: 1 / (τ · var(w)), detached.
    fn logit_scale(&self, data: &[f32]) -> f32 {
        let n = data.len().max(1) as f32;
        let mean: f32 = data.iter().sum::<f32>() / n;
        let var: f32 = data.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        1.0 / (self.config.temperature * var.max(1e-12))
    }

    /// Row keys of `[n, d]` weight rows: their 16-bit patterns, when the
    /// weight is 16-bit and blocks fit a `u64` key.
    fn row_keys(&self, w2: &Tensor) -> Option<RowKeys> {
        let d = self.config.cluster_dim;
        if d > uniquify::MAX_KEY_DIM || !w2.dtype().is_16bit() {
            return None;
        }
        w2.bits16()
            .ok()
            .map(|patterns| RowKeys::blocks(&patterns, d))
    }

    /// Init plus the detached Lloyd iterations (the reference DKM detaches
    /// all but the final iteration) over `[n, d]` rows `data`. Returns the
    /// Lloyd state, the centroids and the iterations run.
    fn lloyd<'a>(
        &self,
        data: &'a [f32],
        keys: Option<&RowKeys>,
        scale: f32,
        device: Device,
    ) -> (Lloyd<'a>, Vec<f32>, usize) {
        let (k, d) = (self.config.k(), self.config.cluster_dim);
        let mut lloyd = Lloyd::new(data, keys.map(RowKeys::keys), k, d, scale, device);
        let mut c = self.init_centroids(data, Some(&lloyd));
        let mut next = vec![0.0f32; k * d];
        let mut iterations_run = 0;
        for _ in 0..self.config.iters.saturating_sub(1) {
            lloyd.step(&c, &mut next);
            // `ops::max_abs_diff(c_new, c)`.
            let moved = next
                .iter()
                .zip(&c)
                .map(|(&x, &y)| (x - y).abs())
                .fold(0.0, f32::max);
            std::mem::swap(&mut c, &mut next);
            iterations_run += 1;
            if moved < self.config.tol {
                break;
            }
        }
        (lloyd, c, iterations_run)
    }

    /// Shape `[n, d]` of `numel` weights as rows of `cluster_dim`.
    ///
    /// # Panics
    ///
    /// Panics if `numel` is not divisible by `cluster_dim`.
    fn rows_shape(&self, numel: usize) -> [usize; 2] {
        let d = self.config.cluster_dim;
        assert_eq!(
            numel % d,
            0,
            "numel {numel} not divisible by cluster_dim {d}"
        );
        [numel / d, d]
    }

    /// Differentiably cluster `w`, returning soft weights with the same
    /// shape plus the final centroids.
    ///
    /// # Panics
    ///
    /// Panics if `w.numel()` is not divisible by `cluster_dim`.
    pub fn cluster(&self, w: &Var) -> DkmOutput {
        let shape = w.value().shape().to_vec();
        let [n, d] = self.rows_shape(w.value().numel());

        let w2 = w.reshape(&[n, d]);
        let wt = w2.value();
        let keys = self.row_keys(wt);
        let data = wt.to_vec();
        let scale = self.logit_scale(&data);
        let (mut lloyd, c, iterations_run) = self.lloyd(&data, keys.as_ref(), scale, wt.device());

        // Final differentiable iteration: attention map + centroid update +
        // soft assignment as one node. The attention map is annotated with
        // the weights' bit patterns (when 16-bit) so the hooks can uniquify
        // every save of it.
        let (soft, centroids) = dkm_iteration(&w2, &mut lloyd, &c, keys);
        DkmOutput {
            soft: soft.reshape(&shape),
            centroids,
            iterations_run,
        }
    }

    /// Cluster a plain tensor (no gradient tracking).
    pub fn cluster_tensor(&self, w: &Tensor) -> DkmOutput {
        self.cluster(&Var::constant(w.clone()))
    }

    /// The `[k, d]` centroids [`DkmLayer::cluster`] returns for `w`, without
    /// the soft weights: the Lloyd iterations plus one more step, which is
    /// the differentiable iteration's centroid update. Builds no `Var` and
    /// annotates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `w.numel()` is not divisible by `cluster_dim`.
    fn centroids(&self, w: &Tensor) -> Tensor {
        let [n, d] = self.rows_shape(w.numel());
        let w2 = w.reshape(&[n, d]);
        let keys = self.row_keys(&w2);
        let data = w2.to_vec();
        let scale = self.logit_scale(&data);
        let (mut lloyd, c, _) = self.lloyd(&data, keys.as_ref(), scale, w2.device());
        let mut c_star = vec![0.0f32; c.len()];
        lloyd.step(&c, &mut c_star);
        Tensor::from_vec(c_star, &[self.config.k(), d], DType::F32, w.device())
    }

    /// Hard-assign `w` to its nearest centroids and pack into a palettized
    /// tensor (the deployment artifact: LUT + n-bit indices).
    pub fn palettize(&self, w: &Tensor) -> PalettizedTensor {
        PalettizedTensor::from_nearest(
            w,
            &self.centroids(w),
            self.config.bits,
            self.config.cluster_dim,
        )
    }

    /// Palettize a `[rows, cols]` matrix with one independently clustered
    /// LUT per group of `rows_per_group` consecutive rows (per-grouped-
    /// channel palettization; `0` means one group for the whole matrix).
    /// The last group may be smaller.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 2 or a group's element count is not
    /// divisible by `cluster_dim`.
    pub fn palettize_grouped(&self, w: &Tensor, rows_per_group: usize) -> GroupedPalettized {
        assert_eq!(w.rank(), 2, "grouped palettization expects [rows, cols]");
        let rows = w.shape()[0];
        let g = if rows_per_group == 0 || rows_per_group > rows {
            rows
        } else {
            rows_per_group
        };
        let mut groups = Vec::with_capacity(rows.div_ceil(g));
        let mut start = 0;
        while start < rows {
            let len = g.min(rows - start);
            let slab = w.slice(0, start, len).contiguous();
            groups.push(self.palettize(&slab));
            start += len;
        }
        GroupedPalettized::from_parts(groups, g, w.shape().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_autograd::check_gradients;
    use edkm_tensor::{runtime, CostModel, Device};

    fn layer(bits: u8) -> DkmLayer {
        DkmLayer::new(DkmConfig::with_bits(bits))
    }

    #[test]
    fn config_k() {
        assert_eq!(DkmConfig::with_bits(3).k(), 8);
        assert_eq!(DkmConfig::with_bits(1).k(), 2);
        assert_eq!(DkmConfig::default().bits, 3);
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn zero_bits_panics() {
        DkmConfig::with_bits(0);
    }

    #[test]
    fn clusters_to_few_values() {
        runtime::reset();
        let w = Tensor::randn(&[32, 16], DType::F32, Device::Cpu, 0).map(|v| v * 0.02);
        let out = layer(2).cluster_tensor(&w);
        assert_eq!(out.soft.value().shape(), &[32, 16]);
        assert_eq!(out.centroids.shape(), &[4, 1]);
        // Soft weights concentrate near centroids: hardening must be close.
        let hard = layer(2).palettize(&w).decode();
        let unique: std::collections::HashSet<u32> =
            hard.to_vec().iter().map(|v| v.to_bits()).collect();
        assert!(
            unique.len() <= 4,
            "at most k distinct values, got {}",
            unique.len()
        );
    }

    #[test]
    fn two_well_separated_groups_are_found() {
        runtime::reset();
        // Values tightly packed around -1 and +1: 1-bit clustering must put
        // centroids near ±1.
        let mut data = vec![];
        for i in 0..64 {
            data.push(if i % 2 == 0 {
                -1.0 + 0.001 * (i as f32) / 64.0
            } else {
                1.0 - 0.001 * (i as f32) / 64.0
            });
        }
        let w = Tensor::from_vec(data, &[64], DType::F32, Device::Cpu);
        let out = layer(1).cluster_tensor(&w);
        let mut c = out.centroids.to_vec();
        c.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((c[0] + 1.0).abs() < 0.05, "low centroid {}", c[0]);
        assert!((c[1] - 1.0).abs() < 0.05, "high centroid {}", c[1]);
        assert!(out.iterations_run >= 1);
    }

    #[test]
    fn soft_weights_reduce_quantization_error_vs_extremes() {
        runtime::reset();
        let w = Tensor::randn(&[256], DType::F32, Device::Cpu, 1).map(|v| v * 0.02);
        let out = layer(3).cluster_tensor(&w);
        let err = t::max_abs_diff(out.soft.value(), &w);
        // 8 centroids over ~±0.06: soft error well under the full range.
        assert!(err < 0.02, "soft clustering error too large: {err}");
    }

    #[test]
    fn gradients_flow_to_weights() {
        runtime::reset();
        let w = Var::param(Tensor::randn(&[16, 4], DType::F32, Device::Cpu, 2).map(|v| v * 0.02));
        let out = layer(2).cluster(&w);
        out.soft.sum_all().backward();
        let g = w
            .grad()
            .expect("weights must receive gradients through DKM");
        assert_eq!(g.shape(), &[16, 4]);
        assert!(t::l2_norm(&g) > 0.0);
    }

    #[test]
    fn gradcheck_final_differentiable_iteration() {
        // The full layer is not numerically checkable (the Lloyd iterations
        // and quantile init are detached by design, exactly as in DKM), so
        // we check the fused differentiable iteration in isolation:
        // attention map → centroid update → soft assignment, against
        // *fixed* centroids.
        runtime::reset();
        let w = Tensor::randn(&[12, 1], DType::F32, Device::Cpu, 3);
        let c = [-1.0, -0.2, 0.4, 1.2];
        check_gradients(
            |vs| {
                let data = vs[0].value().to_vec();
                let mut lloyd = Lloyd::new(&data, None, 4, 1, 2.0, Device::Cpu);
                let (soft, _) = dkm_iteration(&vs[0], &mut lloyd, &c, None);
                soft.square().sum_all()
            },
            &[w],
            1e-3,
            5e-2,
        )
        .unwrap();
    }

    #[test]
    fn bf16_scalar_clustering_annotates_attention_map() {
        runtime::reset();
        uniquify::clear_annotations();
        let w = Var::param(Tensor::randn(&[64], DType::Bf16, Device::Cpu, 4).map(|v| v * 0.02));
        let _out = layer(3).cluster(&w);
        assert_eq!(
            uniquify::annotation_count(),
            1,
            "clustering a 16-bit weight must annotate its attention map"
        );
        uniquify::clear_annotations();
    }

    #[test]
    fn f32_clustering_does_not_annotate() {
        runtime::reset();
        uniquify::clear_annotations();
        let w = Var::param(Tensor::randn(&[64], DType::F32, Device::Cpu, 5));
        let _out = layer(3).cluster(&w);
        assert_eq!(uniquify::annotation_count(), 0);
    }

    #[test]
    fn with_vector_sub_bit_accounting() {
        let cfg = DkmConfig::with_vector(4, 2);
        assert_eq!(cfg.k(), 16);
        assert_eq!(cfg.cluster_dim, 2);
        assert!((cfg.effective_bits_per_weight() - 2.0).abs() < 1e-12);
        assert!((DkmConfig::with_bits(3).effective_bits_per_weight() - 3.0).abs() < 1e-12);
        // 4-bit palette over 4-element blocks: 1 bit/weight.
        assert!((DkmConfig::with_vector(4, 4).effective_bits_per_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bf16_vector_clustering_annotates_block_keys() {
        runtime::reset();
        uniquify::clear_annotations();
        let w = Var::param(Tensor::randn(&[64], DType::Bf16, Device::Cpu, 8).map(|v| v * 0.02));
        let _out = DkmLayer::new(DkmConfig::with_vector(3, 2)).cluster(&w);
        assert_eq!(
            uniquify::annotation_count(),
            1,
            "vector clustering of 16-bit weights must annotate block keys"
        );
        uniquify::clear_annotations();
    }

    #[test]
    fn vector_gradients_flow_and_match_hooked_run() {
        use crate::hooks::{EdkmConfig, EdkmHooks};
        use edkm_autograd::push_hooks;
        use edkm_autograd::SavedTensorHooks;
        // Exactness of eDKM must extend to the vector path: gradients with
        // full hooks installed equal gradients without, bit for bit.
        let run = |hooked: bool| -> Vec<f32> {
            runtime::reset();
            uniquify::clear_annotations();
            let w = Var::param(
                Tensor::randn(&[16, 4], DType::Bf16, Device::gpu(), 13).map(|v| v * 0.02),
            );
            let lay = DkmLayer::new(DkmConfig::with_vector(3, 2));
            let hooks = Arc::new(EdkmHooks::new(EdkmConfig::full(4)));
            let _g = hooked.then(|| push_hooks(hooks as Arc<dyn SavedTensorHooks>));
            let out = lay.cluster(&w);
            out.soft.square().sum_all().backward();
            w.grad().unwrap().to_vec()
        };
        assert_eq!(run(true), run(false));
        uniquify::clear_annotations();
    }

    #[test]
    fn vector_clustering_dim2() {
        runtime::reset();
        let lay = DkmLayer::new(DkmConfig {
            bits: 2,
            cluster_dim: 2,
            temperature: 0.1,
            iters: 5,
            tol: 1e-5,
            init: DkmInit::Quantile,
        });
        let w = Tensor::randn(&[16, 4], DType::F32, Device::Cpu, 6);
        let out = lay.cluster_tensor(&w);
        assert_eq!(out.centroids.shape(), &[4, 2]);
        assert_eq!(out.soft.value().shape(), &[16, 4]);
    }

    #[test]
    fn all_init_strategies_produce_valid_centroids() {
        runtime::reset();
        let w = Tensor::randn(&[512], DType::F32, Device::Cpu, 7).map(|v| v * 0.02);
        for init in [
            DkmInit::Quantile,
            DkmInit::KmeansPlusPlus { seed: 3 },
            DkmInit::UniformRange,
        ] {
            let lay = DkmLayer::new(DkmConfig {
                init,
                ..DkmConfig::with_bits(3)
            });
            let out = lay.cluster_tensor(&w);
            assert_eq!(out.centroids.shape(), &[8, 1], "{init:?}");
            // Soft clustering with 8 centroids over ~N(0, 0.02): the max
            // error stays a small fraction of the ±0.06 weight range.
            let err = t::max_abs_diff(out.soft.value(), &w);
            assert!(err < 0.05, "{init:?} error {err}");
        }
    }

    #[test]
    fn uniform_init_spans_the_range() {
        runtime::reset();
        let w = Tensor::from_vec(
            (0..100).map(|i| i as f32 / 100.0).collect(),
            &[100],
            DType::F32,
            Device::Cpu,
        );
        let lay = DkmLayer::new(DkmConfig {
            init: DkmInit::UniformRange,
            iters: 1, // inspect near-initial centroids
            ..DkmConfig::with_bits(2)
        });
        let out = lay.cluster_tensor(&w);
        let mut c = out.centroids.to_vec();
        c.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(c[0] < 0.3 && c[3] > 0.7, "centroids must span: {c:?}");
    }

    #[test]
    fn kmeanspp_separates_distinct_modes() {
        runtime::reset();
        // Four tight modes: farthest-point seeding must land in all four.
        let mut data = Vec::new();
        for i in 0..200 {
            data.push([-3.0f32, -1.0, 1.0, 3.0][i % 4] + 0.001 * (i as f32 / 200.0));
        }
        let w = Tensor::from_vec(data, &[200], DType::F32, Device::Cpu);
        let lay = DkmLayer::new(DkmConfig {
            init: DkmInit::KmeansPlusPlus { seed: 0 },
            ..DkmConfig::with_bits(2)
        });
        let out = lay.cluster_tensor(&w);
        let mut c = out.centroids.to_vec();
        c.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (ci, target) in c.iter().zip([-3.0f32, -1.0, 1.0, 3.0]) {
            assert!((ci - target).abs() < 0.1, "centroids {c:?}");
        }
    }

    #[test]
    fn lower_temperature_hardens_soft_weights() {
        runtime::reset();
        // Sharper attention (smaller τ) concentrates each weight's mass on
        // its nearest centroid, so the soft output sits closer to the hard
        // (palettized) assignment — the mechanism behind τ-annealing.
        let w = Tensor::randn(&[512], DType::F32, Device::Cpu, 21).map(|v| v * 0.02);
        // Mean gap, not max: weights sitting exactly between two centroids
        // keep 50/50 attention at any τ, so the max is τ-insensitive.
        let gap = |temp: f32| {
            let lay = DkmLayer::new(DkmConfig {
                temperature: temp,
                ..DkmConfig::with_bits(3)
            });
            let out = lay.cluster_tensor(&w);
            let hard = PalettizedTensor::from_nearest(&w, &out.centroids, 3, 1).decode();
            let (s, h) = (out.soft.value().to_vec(), hard.to_vec());
            s.iter().zip(&h).map(|(a, b)| (a - b).abs()).sum::<f32>() / s.len() as f32
        };
        let (sharp, diffuse) = (gap(0.005), gap(0.5));
        assert!(
            sharp < diffuse / 2.0,
            "τ=0.005 mean gap {sharp} must be far below τ=0.5 gap {diffuse}"
        );
    }

    /// The dense tensor-op Lloyd chain the fused step replaces: argsort
    /// init, then `neg_sqdist → mul_scalar → softmax_lastdim → Aᵀ·W /
    /// (ΣA + ε)` per iteration, over all `n` rows.
    fn reference_lloyd(lay: &DkmLayer, wt: &Tensor) -> (Tensor, usize) {
        let cfg = lay.config();
        let (k, d) = (cfg.k(), cfg.cluster_dim);
        let data = wt.to_vec();
        let scale = lay.logit_scale(&data);
        let init = lay.init_centroids(&data, None);
        let mut c = Tensor::from_vec(init, &[k, d], DType::F32, wt.device());
        let mut iterations_run = 0;
        for _ in 0..cfg.iters.saturating_sub(1) {
            let logits = t::mul_scalar(&t::neg_sqdist(wt, &c), scale);
            let a = t::softmax_lastdim(&logits);
            let num = t::matmul(&a.t(), wt);
            let den = t::add_scalar(&t::sum_axis(&a, 0).reshape(&[k, 1]), 1e-8);
            let c_new = t::div(&num, &den);
            let moved = t::max_abs_diff(&c_new, &c);
            c = c_new;
            iterations_run += 1;
            if moved < cfg.tol {
                break;
            }
        }
        (c, iterations_run)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `run`'s result and the simulated seconds it charged, on a fresh
    /// runtime bound to this thread (other tests charge the process
    /// default) whose slow GPU makes every op's charge whole nanoseconds.
    fn charged<T>(run: impl FnOnce() -> T) -> (T, f64) {
        let rt = runtime::Runtime::new();
        rt.set_cost_model(CostModel {
            gpu_flops: 1e3,
            ..CostModel::default()
        });
        let _bound = runtime::bind(&rt);
        let out = run();
        (out, rt.clock().seconds())
    }

    /// The fused Lloyd loop on `w` equals the dense reference bit for bit,
    /// runs as many iterations and charges the same simulated seconds; the
    /// centroids-only path equals `cluster`'s `c*`. Returns the iterations.
    fn assert_matches_reference(lay: &DkmLayer, w: &Tensor, what: &str) -> usize {
        let [n, d] = lay.rows_shape(w.numel());
        let wt = w.reshape(&[n, d]);
        let ((want, want_iters), want_s) = charged(|| reference_lloyd(lay, &wt));
        let keys = lay.row_keys(&wt);
        let data = wt.to_vec();
        let scale = lay.logit_scale(&data);
        let ((_, got, got_iters), got_s) =
            charged(|| lay.lloyd(&data, keys.as_ref(), scale, wt.device()));
        assert_eq!(got_s, want_s, "{what}: simulated seconds");
        assert_eq!(bits(&got), bits(&want.to_vec()), "{what}: centroids");
        assert_eq!(got_iters, want_iters, "{what}: iterations");
        assert_eq!(
            bits(&lay.centroids(w).to_vec()),
            bits(&lay.cluster_tensor(w).centroids.to_vec()),
            "{what}: centroids-only path"
        );
        got_iters
    }

    #[test]
    fn fused_lloyd_matches_the_dense_chain_bit_for_bit() {
        let inits = [
            DkmInit::Quantile,
            DkmInit::KmeansPlusPlus { seed: 11 },
            DkmInit::UniformRange,
        ];
        for dtype in [DType::Bf16, DType::F16, DType::F32] {
            let w = Tensor::randn(&[48, 32], dtype, Device::gpu(), 31).map(|v| v * 0.02);
            for dim in [1, 2, 4] {
                for init in inits {
                    let lay = DkmLayer::new(DkmConfig {
                        init,
                        ..DkmConfig::with_vector(3, dim)
                    });
                    assert_matches_reference(&lay, &w, &format!("{dtype:?} d={dim} {init:?}"));
                }
            }
        }
    }

    #[test]
    fn fused_lloyd_matches_on_early_stop() {
        let w = Tensor::randn(&[64, 16], DType::Bf16, Device::gpu(), 32).map(|v| v * 0.02);
        let lay = DkmLayer::new(DkmConfig {
            tol: 1e-3,
            ..DkmConfig::with_bits(3)
        });
        let iters = assert_matches_reference(&lay, &w, "early stop");
        assert!(iters < lay.config().iters - 1, "no early stop: {iters}");
    }

    #[test]
    fn fused_lloyd_matches_when_split_across_workers() {
        // 2^14 scalar rows × 8 centroids reach the parallel threshold: the
        // accumulation splits by centroid (and, for f32, the softmax rows
        // split by row).
        const { assert!(128 * 128 * 8 >= t::PAR_WORK_THRESHOLD) };
        for dtype in [DType::Bf16, DType::F32] {
            let w = Tensor::randn(&[128, 128], dtype, Device::gpu(), 33).map(|v| v * 0.02);
            assert_matches_reference(&layer(3), &w, &format!("{dtype:?} 2^14 rows"));
        }
    }

    #[test]
    fn quantile_init_breaks_the_signed_zero_tie_by_index() {
        // Half the weights are ±0 in alternating index order, so middle
        // quantiles land in the zero group, where the stable argsort picks
        // the sign of the zero at that rank.
        let data: Vec<f32> = (0..1024)
            .map(|i| match i % 4 {
                0 => 0.0,
                1 => -0.0,
                _ => ((i * 37 % 101) as f32 - 50.0) * 1e-3,
            })
            .collect();
        let w = Tensor::from_vec(data, &[1024], DType::Bf16, Device::gpu());
        for iters in [1, 8] {
            let lay = DkmLayer::new(DkmConfig {
                iters,
                ..DkmConfig::with_bits(3)
            });
            assert_matches_reference(&lay, &w, &format!("±0, iters {iters}"));
        }
        let lay = DkmLayer::new(DkmConfig {
            iters: 1,
            ..DkmConfig::with_bits(3)
        });
        let data = w.to_vec();
        let keys = lay.row_keys(&w.reshape(&[1024, 1]));
        let (_, init, _) = lay.lloyd(&data, keys.as_ref(), lay.logit_scale(&data), w.device());
        assert!(
            init.iter().any(|v| v.to_bits() == (-0.0f32).to_bits())
                && init.iter().any(|v| v.to_bits() == 0),
            "both zero signs must be picked: {init:?}"
        );
    }

    /// The dense tape chain the fused `dkm_iteration` node replaces: the
    /// same Lloyd loop, then `neg_sqdist → mul_scalar → softmax → Aᵀ·W /
    /// (ΣA + ε) → A·C*` as separate autograd ops.
    fn reference_cluster(lay: &DkmLayer, w: &Var) -> DkmOutput {
        let shape = w.value().shape().to_vec();
        let [n, d] = lay.rows_shape(w.value().numel());
        let k = lay.config().k();
        let w2 = w.reshape(&[n, d]);
        let wt = w2.value();
        let keys = lay.row_keys(wt);
        let data = wt.to_vec();
        let scale = lay.logit_scale(&data);
        let (_, c, iterations_run) = lay.lloyd(&data, keys.as_ref(), scale, wt.device());
        let c_const = Var::constant(Tensor::from_vec(c, &[k, d], DType::F32, wt.device()));
        let a = w2.neg_sqdist(&c_const).mul_scalar(scale).softmax_lastdim();
        let num = a.t().matmul(&w2);
        let den = a.sum_axis(0).reshape(&[k, 1]).add_scalar(1e-8);
        let c_star = num.div(&den);
        DkmOutput {
            centroids: c_star.value().clone(),
            soft: a.matmul(&c_star).reshape(&shape),
            iterations_run,
        }
    }

    /// Saved-tensor hooks that keep tensors inline and log every pack and
    /// unpack with the tensor's shape and dtype.
    #[derive(Default)]
    struct Recording(std::sync::Mutex<Vec<(&'static str, Vec<usize>, DType)>>);

    impl edkm_autograd::SavedTensorHooks for Recording {
        fn pack(&self, t: &Tensor) -> edkm_autograd::PackedTensor {
            let mut log = self.0.lock().unwrap();
            log.push(("pack", t.shape().to_vec(), t.dtype()));
            edkm_autograd::PackedTensor::Inline(t.clone())
        }
        fn unpack(&self, p: &edkm_autograd::PackedTensor) -> Tensor {
            let edkm_autograd::PackedTensor::Inline(t) = p else {
                unreachable!("Recording packs inline")
            };
            let mut log = self.0.lock().unwrap();
            log.push(("unpack", t.shape().to_vec(), t.dtype()));
            t.clone()
        }
    }

    /// `cluster` on `w` equals the dense tape bit for bit — soft weights,
    /// centroids, the weight gradient for a random upstream gradient, and
    /// the simulated seconds of forward plus backward — and hands
    /// saved-tensor hooks the same packs and unpacks in the same order.
    fn assert_iteration_matches_the_tape(lay: &DkmLayer, w: &Tensor, what: &str) {
        let upstream = Tensor::randn(w.shape(), DType::F32, w.device(), 41);
        let run = |cluster: &dyn Fn(&Var) -> DkmOutput| {
            let w = Var::param(w.clone());
            let out = cluster(&w);
            out.soft.backward_with(upstream.clone());
            let grad = w.grad().expect("the weight receives a gradient");
            (
                bits(&out.soft.value().to_vec()),
                bits(&out.centroids.to_vec()),
                bits(&grad.to_vec()),
            )
        };
        let fused = |w: &Var| lay.cluster(w);
        let tape = |w: &Var| reference_cluster(lay, w);
        let ((want_soft, want_c, want_grad), want_s) = charged(|| run(&tape));
        let ((got_soft, got_c, got_grad), got_s) = charged(|| run(&fused));
        assert_eq!(got_soft, want_soft, "{what}: soft weights");
        assert_eq!(got_c, want_c, "{what}: centroids");
        assert_eq!(got_grad, want_grad, "{what}: weight gradient");
        assert_eq!(got_s, want_s, "{what}: simulated seconds");

        let log = |cluster: &dyn Fn(&Var) -> DkmOutput| {
            let hooks = Arc::new(Recording::default());
            {
                let _g = edkm_autograd::push_hooks(hooks.clone());
                run(cluster);
            }
            let log = hooks.0.lock().unwrap().clone();
            log
        };
        let want = log(&tape);
        assert_eq!(want.len(), 18, "{what}: the tape saves nine tensors");
        assert_eq!(log(&fused), want, "{what}: pack/unpack stream");
        uniquify::clear_annotations();
    }

    #[test]
    fn fused_iteration_matches_the_dense_tape_bit_for_bit() {
        for dtype in [DType::Bf16, DType::F16, DType::F32] {
            let w = Tensor::randn(&[48, 32], dtype, Device::gpu(), 34).map(|v| v * 0.02);
            for dim in [1, 2, 4] {
                let lay = DkmLayer::new(DkmConfig::with_vector(3, dim));
                assert_iteration_matches_the_tape(&lay, &w, &format!("{dtype:?} d={dim}"));
            }
        }
    }

    #[test]
    fn fused_iteration_matches_when_split_across_workers() {
        // 2^14 rows × 8 centroids reach the parallel threshold: `dC*` splits
        // by centroid block and the per-row pass by row block.
        const { assert!((1 << 14) * 8 >= t::PAR_WORK_THRESHOLD) };
        for dtype in [DType::Bf16, DType::F16, DType::F32] {
            for dim in [1, 2, 4] {
                let w =
                    Tensor::randn(&[128, 128 * dim], dtype, Device::gpu(), 35).map(|v| v * 0.02);
                let lay = DkmLayer::new(DkmConfig::with_vector(3, dim));
                let what = format!("{dtype:?} d={dim} 2^14 rows");
                assert_iteration_matches_the_tape(&lay, &w, &what);
            }
        }
    }

    #[test]
    fn early_stop_on_converged_clusters() {
        runtime::reset();
        // All-equal weights converge after the first update.
        let w = Tensor::full(0.5, &[128], DType::F32, Device::Cpu);
        let out = layer(2).cluster_tensor(&w);
        assert!(out.iterations_run <= 2, "ran {}", out.iterations_run);
    }
}

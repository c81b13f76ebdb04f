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

/// Softmax over the last axis whose output storage is annotated with weight
/// bit patterns *before* it is saved for backward — so the saved-tensor
/// hooks can uniquify the attention map (the save happens inside this op).
fn softmax_annotated(x: &Var, keys: Option<RowKeys>) -> Var {
    let value = t::softmax_lastdim(x.value());
    if let Some(keys) = keys {
        uniquify::annotate(value.storage_id(), Arc::new(keys));
    }
    let saved = vec![save_tensor(&value)];
    Var::custom(
        value,
        "softmax_annotated",
        vec![x.clone()],
        saved,
        Box::new(|g, s| {
            // Identical to softmax backward: dx = s ⊙ (g − rowsum(g ⊙ s)).
            let gs = t::mul(g, &s[0]);
            let k = *gs.shape().last().expect("rank >= 1");
            let rows = gs.numel() / k;
            let row_sums = t::sum_axis(&gs.reshape(&[rows, k]), 1).reshape(&[rows, 1]);
            let g2 = g.reshape(&[rows, k]);
            let dx = t::mul(&s[0].reshape(&[rows, k]), &t::sub(&g2, &row_sums));
            vec![Some(dx.reshape(s[0].shape()))]
        }),
    )
}

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

/// The detached Lloyd iterations of one weight, computed over its
/// *distinct* rows.
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
        let (k, d, scale) = (self.k, self.d, self.scale);
        let n = self.w.len() / d;
        charge_dense_step(n, k, d, self.device);

        let rows = &self.rows;
        let fill = |r: usize, out: &mut [f32]| row_terms(&rows[r * d..(r + 1) * d], c, scale, out);
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

        for (b, block) in self.acc.chunks(per * (d + 1)).enumerate() {
            let (num, den) = block.split_at(block.len() / (d + 1) * d);
            let out = &mut c_new[b * per * d..][..num.len()];
            for ((o, nj), &dj) in out.chunks_mut(d).zip(num.chunks(d)).zip(den) {
                // `add_scalar(ΣA, 1e-8)` then `div`, as the dense chain does.
                let den = dj + 1e-8;
                for (o, &v) in o.iter_mut().zip(nj) {
                    *o = v / den;
                }
            }
        }
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

/// One distinct row's terms: the softmax over `-‖row − c_j‖² · scale` for
/// every centroid `j` (with the operation order of `neg_sqdist`,
/// `mul_scalar` and `softmax_lastdim`) into the last `k` slots of `out`,
/// and the products `a_j · row` into the first `k · d`.
fn row_terms(row: &[f32], c: &[f32], scale: f32, out: &mut [f32]) {
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
    let inv = 1.0 / sum;
    for o in out.iter_mut() {
        *o *= inv;
    }
    for (p, &a) in prods.chunks_exact_mut(row.len()).zip(out.iter()) {
        for (p, &wv) in p.iter_mut().zip(row) {
            *p = a * wv;
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
        let k = self.config.k();

        let w2 = w.reshape(&[n, d]);
        let wt = w2.value();
        let keys = self.row_keys(wt);
        let data = wt.to_vec();
        let scale = self.logit_scale(&data);
        let (_, c, iterations_run) = self.lloyd(&data, keys.as_ref(), scale, wt.device());

        // Final differentiable iteration: attention map + centroid update +
        // soft assignment, all on the tape. The attention map is annotated
        // with the weights' bit patterns (when 16-bit) so the hooks can
        // uniquify every save of it.
        let c_const = Var::constant(Tensor::from_vec(c, &[k, d], DType::F32, wt.device()));
        let logits = w2.neg_sqdist(&c_const).mul_scalar(scale);
        let a = softmax_annotated(&logits, keys); // the big [n, k] attention map

        let num = a.t().matmul(&w2); // [k, d] — saves Aᵀ (a view of A)
        let den = a.sum_axis(0).reshape(&[k, 1]).add_scalar(1e-8);
        let c_star = num.div(&den);
        let soft = a.matmul(&c_star).reshape(&shape); // saves A again

        DkmOutput {
            centroids: c_star.value().clone(),
            soft,
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
        // we check the differentiable part in isolation: attention map →
        // centroid update → soft assignment, against *fixed* centroids.
        runtime::reset();
        let w = Tensor::randn(&[12, 1], DType::F32, Device::Cpu, 3);
        let c = Tensor::from_vec(vec![-1.0, -0.2, 0.4, 1.2], &[4, 1], DType::F32, Device::Cpu);
        check_gradients(
            |vs| {
                let c_const = Var::constant(c.clone());
                let a = vs[0].neg_sqdist(&c_const).mul_scalar(2.0).softmax_lastdim();
                let num = a.t().matmul(&vs[0]);
                let den = a.sum_axis(0).reshape(&[4, 1]).add_scalar(1e-8);
                a.matmul(&num.div(&den)).square().sum_all()
            },
            &[w],
            1e-3,
            5e-2,
        )
        .unwrap();
    }

    #[test]
    fn annotated_softmax_matches_plain_softmax_gradients() {
        runtime::reset();
        let x = Tensor::randn(&[6, 4], DType::F32, Device::Cpu, 9);
        let weight = Tensor::randn(&[6, 4], DType::F32, Device::Cpu, 10);
        // Values equal.
        let a = super::softmax_annotated(&Var::constant(x.clone()), None);
        let b = Var::constant(x.clone()).softmax_lastdim();
        assert!(t::allclose(a.value(), b.value(), 1e-7));
        // Gradients equal.
        let grad_of = |annotated: bool| -> Vec<f32> {
            let v = Var::param(x.clone());
            let s = if annotated {
                super::softmax_annotated(&v, None)
            } else {
                v.softmax_lastdim()
            };
            s.mul(&Var::constant(weight.clone())).sum_all().backward();
            v.grad().unwrap().to_vec()
        };
        let ga = grad_of(true);
        let gb = grad_of(false);
        for (x, y) in ga.iter().zip(&gb) {
            assert!((x - y).abs() < 1e-6);
        }
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

    #[test]
    fn early_stop_on_converged_clusters() {
        runtime::reset();
        // All-equal weights converge after the first update.
        let w = Tensor::full(0.5, &[128], DType::F32, Device::Cpu);
        let out = layer(2).cluster_tensor(&w);
        assert!(out.iterations_run <= 2, "ran {}", out.iterations_run);
    }
}

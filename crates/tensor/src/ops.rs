//! Tensor-level math kernels (no autograd; see `edkm-autograd` for VJPs).
//!
//! Every kernel charges its FLOPs to the simulated clock via
//! [`crate::runtime::record_compute`], which is how the "Runtime (sec)"
//! column of the paper's Table 2 is assembled.

use crate::layout::broadcast_shapes;
use crate::{runtime, DType, Tensor};
use rayon::prelude::*;

/// Multiply-accumulate count below which a kernel stays single-threaded
/// (spawning workers costs more than it saves on small tensors).
pub const PAR_WORK_THRESHOLD: usize = 1 << 17;

/// Dtype promotion for binary ops: like dtypes stay, unlike promote to f32.
pub fn promote(a: DType, b: DType) -> DType {
    if a == b {
        a
    } else {
        DType::F32
    }
}

fn check_same_device(a: &Tensor, b: &Tensor, op: &str) {
    assert_eq!(
        a.device(),
        b.device(),
        "{op}: tensors on different devices ({} vs {})",
        a.device(),
        b.device()
    );
}

/// Element-wise binary op with NumPy broadcasting.
///
/// # Panics
///
/// Panics if shapes are not broadcast-compatible or devices differ.
pub fn binary_op(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    check_same_device(a, b, "binary_op");
    let out_shape = broadcast_shapes(a.shape(), b.shape());
    let dt = promote(a.dtype(), b.dtype());

    let out = if a.shape() == b.shape() && a.shape() == out_shape.as_slice() {
        // Fast path: identical logical order.
        a.with_data(|av| {
            b.with_data(|bv| {
                av.iter()
                    .zip(bv)
                    .map(|(&x, &y)| f(x, y))
                    .collect::<Vec<f32>>()
            })
        })
    } else {
        let la = a.layout().broadcast_to(&out_shape);
        let lb = b.layout().broadcast_to(&out_shape);
        a.storage().with_data(|ad| {
            b.storage().with_data(|bd| {
                la.iter_offsets()
                    .zip(lb.iter_offsets())
                    .map(|(oa, ob)| f(ad[oa], bd[ob]))
                    .collect::<Vec<f32>>()
            })
        })
    };

    let mut out = out;
    if dt.is_16bit() {
        for v in &mut out {
            *v = dt.round(*v);
        }
    }
    runtime::record_compute(out.len() as f64, a.device());
    Tensor::from_vec_unrounded(out, &out_shape, dt, a.device())
}

/// `a + b` with broadcasting.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    binary_op(a, b, |x, y| x + y)
}

/// `a - b` with broadcasting.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    binary_op(a, b, |x, y| x - y)
}

/// `a * b` with broadcasting.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    binary_op(a, b, |x, y| x * y)
}

/// `a / b` with broadcasting.
pub fn div(a: &Tensor, b: &Tensor) -> Tensor {
    binary_op(a, b, |x, y| x / y)
}

/// Element-wise maximum with broadcasting.
pub fn maximum(a: &Tensor, b: &Tensor) -> Tensor {
    binary_op(a, b, f32::max)
}

/// `a + s` element-wise.
pub fn add_scalar(a: &Tensor, s: f32) -> Tensor {
    a.map(|v| v + s)
}

/// `a * s` element-wise.
pub fn mul_scalar(a: &Tensor, s: f32) -> Tensor {
    a.map(|v| v * s)
}

/// Matrix product of 2-D tensors `[m,k] × [k,n] → [m,n]`.
///
/// # Panics
///
/// Panics if shapes are incompatible, ranks are not 2, or devices differ.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    check_same_device(a, b, "matmul");
    assert_eq!(a.rank(), 2, "matmul lhs must be 2-D, got {:?}", a.shape());
    assert_eq!(b.rank(), 2, "matmul rhs must be 2-D, got {:?}", b.shape());
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(
        k,
        k2,
        "matmul inner dims: {:?} × {:?}",
        a.shape(),
        b.shape()
    );

    let dt = promote(a.dtype(), b.dtype());
    let out = a.with_data(|ad| b.with_data(|bd| matmul_kernel(ad, bd, m, k, n)));
    let mut out = out;
    if dt.is_16bit() {
        for v in &mut out {
            *v = dt.round(*v);
        }
    }
    runtime::record_compute(2.0 * m as f64 * n as f64 * k as f64, a.device());
    Tensor::from_vec_unrounded(out, &[m, n], dt, a.device())
}

pub(crate) fn matmul_kernel(ad: &[f32], bd: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    batched_matmul_into(&mut out, ad, bd, 1, m, k, n);
    out
}

/// `out[i, :] += a_row ⋅ B` for one output row.
#[inline]
fn matmul_row(o_row: &mut [f32], a_row: &[f32], bd: &[f32], n: usize) {
    for (p, &av) in a_row.iter().enumerate() {
        let b_row = &bd[p * n..(p + 1) * n];
        for (o, &bv) in o_row.iter_mut().zip(b_row) {
            *o += av * bv;
        }
    }
}

/// Batched `[ba,m,k] × [ba,k,n] → [ba,m,n]` into a zeroed `out`, splitting
/// the `ba·m` output rows across worker threads when the multiply count
/// clears [`PAR_WORK_THRESHOLD`]. Workers only touch their own output rows;
/// all runtime accounting stays with the caller.
fn batched_matmul_into(
    out: &mut [f32],
    ad: &[f32],
    bd: &[f32],
    ba: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(out.len(), ba * m * n);
    if n == 0 {
        return; // zero-width output: nothing to compute (chunking needs n > 0)
    }
    let row = |idx: usize| {
        let (bi, i) = (idx / m, idx % m);
        (
            &ad[bi * m * k + i * k..][..k],
            &bd[bi * k * n..(bi + 1) * k * n],
        )
    };
    if ba * m * n * k >= PAR_WORK_THRESHOLD && ba * m > 1 {
        out.par_chunks_mut(n).enumerate().for_each(|(idx, o_row)| {
            let (a_row, b_mat) = row(idx);
            matmul_row(o_row, a_row, b_mat, n);
        });
    } else {
        for (idx, o_row) in out.chunks_mut(n).enumerate() {
            let (a_row, b_mat) = row(idx);
            matmul_row(o_row, a_row, b_mat, n);
        }
    }
}

/// Batched matrix product `[b,m,k] × [b,k,n] → [b,m,n]`.
///
/// # Panics
///
/// Panics on rank/shape/device mismatch.
pub fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    check_same_device(a, b, "bmm");
    assert_eq!(a.rank(), 3, "bmm lhs must be 3-D");
    assert_eq!(b.rank(), 3, "bmm rhs must be 3-D");
    let (ba, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    let (bb, k2, n) = (b.shape()[0], b.shape()[1], b.shape()[2]);
    assert_eq!(ba, bb, "bmm batch dims differ");
    assert_eq!(k, k2, "bmm inner dims differ");

    let dt = promote(a.dtype(), b.dtype());
    let mut out = vec![0.0f32; ba * m * n];
    a.with_data(|ad| b.with_data(|bd| batched_matmul_into(&mut out, ad, bd, ba, m, k, n)));
    if dt.is_16bit() {
        for v in &mut out {
            *v = dt.round(*v);
        }
    }
    runtime::record_compute(2.0 * (ba * m * n * k) as f64, a.device());
    Tensor::from_vec_unrounded(out, &[ba, m, n], dt, a.device())
}

/// Numerically-stable softmax over the last axis.
pub fn softmax_lastdim(t: &Tensor) -> Tensor {
    let cols = *t.shape().last().expect("softmax needs rank >= 1");
    let data = t.to_vec();
    let mut out = vec![0.0f32; data.len()];
    for (row_in, row_out) in data.chunks(cols).zip(out.chunks_mut(cols)) {
        let mx = row_in.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for (o, &v) in row_out.iter_mut().zip(row_in) {
            *o = (v - mx).exp();
            sum += *o;
        }
        let inv = 1.0 / sum;
        for o in row_out.iter_mut() {
            *o *= inv;
        }
    }
    runtime::record_compute(4.0 * data.len() as f64, t.device());
    Tensor::from_vec_unrounded(out, t.shape(), DType::F32, t.device())
}

/// Numerically-stable log-softmax over the last axis.
pub fn log_softmax_lastdim(t: &Tensor) -> Tensor {
    let cols = *t.shape().last().expect("log_softmax needs rank >= 1");
    let data = t.to_vec();
    let mut out = vec![0.0f32; data.len()];
    for (row_in, row_out) in data.chunks(cols).zip(out.chunks_mut(cols)) {
        let mx = row_in.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let lse = row_in.iter().map(|&v| (v - mx).exp()).sum::<f32>().ln() + mx;
        for (o, &v) in row_out.iter_mut().zip(row_in) {
            *o = v - lse;
        }
    }
    runtime::record_compute(4.0 * data.len() as f64, t.device());
    Tensor::from_vec_unrounded(out, t.shape(), DType::F32, t.device())
}

/// Sum of all elements, as a rank-0 tensor.
pub fn sum_all(t: &Tensor) -> Tensor {
    let s: f32 = t.with_data(|d| d.iter().sum());
    runtime::record_compute(t.numel() as f64, t.device());
    Tensor::from_vec_unrounded(vec![s], &[], DType::F32, t.device())
}

/// Mean of all elements, as a rank-0 tensor.
pub fn mean_all(t: &Tensor) -> Tensor {
    let n = t.numel().max(1) as f32;
    let s = sum_all(t);
    mul_scalar(&s, 1.0 / n)
}

/// Sum over one axis (the axis is removed).
///
/// # Panics
///
/// Panics if `axis >= rank`.
pub fn sum_axis(t: &Tensor, axis: usize) -> Tensor {
    assert!(axis < t.rank(), "sum_axis: axis {axis} out of range");
    let shape = t.shape().to_vec();
    let out_shape: Vec<usize> = shape
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != axis)
        .map(|(_, &s)| s)
        .collect();
    let outer: usize = shape[..axis].iter().product();
    let mid = shape[axis];
    let inner: usize = shape[axis + 1..].iter().product();
    let data = t.to_vec();
    let mut out = vec![0.0f32; outer * inner];
    for o in 0..outer {
        for m in 0..mid {
            let base = (o * mid + m) * inner;
            let obase = o * inner;
            for i in 0..inner {
                out[obase + i] += data[base + i];
            }
        }
    }
    runtime::record_compute(t.numel() as f64, t.device());
    Tensor::from_vec_unrounded(out, &out_shape, DType::F32, t.device())
}

/// Arg-max index along the last axis for each row.
pub fn argmax_lastdim(t: &Tensor) -> Vec<usize> {
    let cols = *t.shape().last().expect("argmax needs rank >= 1");
    t.to_vec()
        .chunks(cols)
        .map(|row| {
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

/// Row gather: `table[ids[i], :] → out[i, :]` (embedding lookup).
///
/// # Panics
///
/// Panics if `table` is not 2-D or any id is out of range.
pub fn gather_rows(table: &Tensor, ids: &[usize]) -> Tensor {
    assert_eq!(table.rank(), 2, "gather_rows table must be 2-D");
    let (v, d) = (table.shape()[0], table.shape()[1]);
    let mut out = Vec::with_capacity(ids.len() * d);
    table.with_data(|td| {
        for &id in ids {
            assert!(id < v, "gather_rows: id {id} out of range {v}");
            out.extend_from_slice(&td[id * d..(id + 1) * d]);
        }
    });
    runtime::record_compute((ids.len() * d) as f64, table.device());
    Tensor::from_vec_unrounded(out, &[ids.len(), d], table.dtype(), table.device())
}

/// Row scatter-add: `out[ids[i], :] += grad[i, :]` over a `[v, d]` output
/// (the VJP of [`gather_rows`]).
///
/// # Panics
///
/// Panics if `grad` is not `[ids.len(), d]` or any id is out of range.
pub fn scatter_add_rows(grad: &Tensor, ids: &[usize], v: usize) -> Tensor {
    assert_eq!(grad.rank(), 2, "scatter_add_rows grad must be 2-D");
    assert_eq!(grad.shape()[0], ids.len(), "scatter_add_rows row mismatch");
    let d = grad.shape()[1];
    let mut out = vec![0.0f32; v * d];
    grad.with_data(|gd| {
        for (i, &id) in ids.iter().enumerate() {
            assert!(id < v, "scatter_add_rows: id {id} out of range {v}");
            for j in 0..d {
                out[id * d + j] += gd[i * d + j];
            }
        }
    });
    runtime::record_compute((ids.len() * d) as f64, grad.device());
    Tensor::from_vec_unrounded(out, &[v, d], DType::F32, grad.device())
}

/// Negative squared Euclidean distance matrix:
/// `out[i][j] = -‖w[i,:] − c[j,:]‖²` for `w: [n,d]`, `c: [k,d]`.
///
/// This is the distance kernel of the DKM attention map (Fig. 1 of the
/// paper); scalar clustering uses `d = 1`.
///
/// # Panics
///
/// Panics on rank/shape/device mismatch.
pub fn neg_sqdist(w: &Tensor, c: &Tensor) -> Tensor {
    check_same_device(w, c, "neg_sqdist");
    assert_eq!(w.rank(), 2, "neg_sqdist: w must be [n,d]");
    assert_eq!(c.rank(), 2, "neg_sqdist: c must be [k,d]");
    assert_eq!(
        w.shape()[1],
        c.shape()[1],
        "neg_sqdist: feature dims differ"
    );
    let (n, d) = (w.shape()[0], w.shape()[1]);
    let k = c.shape()[0];
    let mut out = vec![0.0f32; n * k];
    let sqdist_row = |i: usize, orow: &mut [f32], wd: &[f32], cd: &[f32]| {
        let wrow = &wd[i * d..(i + 1) * d];
        for (j, o) in orow.iter_mut().enumerate() {
            let crow = &cd[j * d..(j + 1) * d];
            let mut acc = 0.0f32;
            for (&wv, &cv) in wrow.iter().zip(crow) {
                let diff = wv - cv;
                acc += diff * diff;
            }
            *o = -acc;
        }
    };
    w.with_data(|wd| {
        c.with_data(|cd| {
            if k == 0 {
                // zero centroids: empty map (chunking needs k > 0)
            } else if n * k * d >= PAR_WORK_THRESHOLD && n > 1 {
                out.par_chunks_mut(k)
                    .enumerate()
                    .for_each(|(i, orow)| sqdist_row(i, orow, wd, cd));
            } else {
                for (i, orow) in out.chunks_mut(k).enumerate() {
                    sqdist_row(i, orow, wd, cd);
                }
            }
        })
    });
    runtime::record_compute(3.0 * (n * k * d) as f64, w.device());
    Tensor::from_vec_unrounded(out, &[n, k], DType::F32, w.device())
}

/// `true` if every element differs by at most `tol`.
pub fn allclose(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.shape() == b.shape() && max_abs_diff(a, b) <= tol
}

/// Largest absolute element-wise difference.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "max_abs_diff shape mismatch");
    let av = a.to_vec();
    let bv = b.to_vec();
    av.iter()
        .zip(&bv)
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Euclidean norm of all elements.
pub fn l2_norm(t: &Tensor) -> f32 {
    t.with_data(|d| {
        d.iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt() as f32
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{runtime, Device};
    use proptest::prelude::*;

    fn t(data: Vec<f32>, shape: &[usize]) -> Tensor {
        Tensor::from_vec(data, shape, DType::F32, Device::Cpu)
    }

    #[test]
    fn add_same_shape() {
        runtime::reset();
        let r = add(&t(vec![1.0, 2.0], &[2]), &t(vec![10.0, 20.0], &[2]));
        assert_eq!(r.to_vec(), vec![11.0, 22.0]);
    }

    #[test]
    fn broadcast_row_and_scalar() {
        runtime::reset();
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let row = t(vec![10.0, 20.0, 30.0], &[3]);
        assert_eq!(
            add(&a, &row).to_vec(),
            vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]
        );
        let s = t(vec![100.0], &[1]);
        assert_eq!(
            add(&a, &s).to_vec(),
            vec![101.0, 102.0, 103.0, 104.0, 105.0, 106.0]
        );
        let col = t(vec![1.0, 2.0], &[2, 1]);
        assert_eq!(
            mul(&col, &row).to_vec(),
            vec![10.0, 20.0, 30.0, 20.0, 40.0, 60.0]
        );
    }

    #[test]
    #[should_panic(expected = "broadcast")]
    fn broadcast_incompatible_panics() {
        runtime::reset();
        add(&t(vec![0.0; 3], &[3]), &t(vec![0.0; 4], &[4]));
    }

    #[test]
    fn sub_mul_div_max() {
        runtime::reset();
        let a = t(vec![4.0, 9.0], &[2]);
        let b = t(vec![2.0, 3.0], &[2]);
        assert_eq!(sub(&a, &b).to_vec(), vec![2.0, 6.0]);
        assert_eq!(mul(&a, &b).to_vec(), vec![8.0, 27.0]);
        assert_eq!(div(&a, &b).to_vec(), vec![2.0, 3.0]);
        assert_eq!(maximum(&a, &b).to_vec(), vec![4.0, 9.0]);
        assert_eq!(add_scalar(&a, 1.0).to_vec(), vec![5.0, 10.0]);
        assert_eq!(mul_scalar(&a, 0.5).to_vec(), vec![2.0, 4.5]);
    }

    #[test]
    fn promote_rules() {
        assert_eq!(promote(DType::F32, DType::F32), DType::F32);
        assert_eq!(promote(DType::Bf16, DType::Bf16), DType::Bf16);
        assert_eq!(promote(DType::Bf16, DType::F32), DType::F32);
    }

    #[test]
    fn bf16_ops_stay_bf16_exact() {
        runtime::reset();
        let a = Tensor::randn(&[32], DType::Bf16, Device::Cpu, 1);
        let b = Tensor::randn(&[32], DType::Bf16, Device::Cpu, 2);
        let r = mul(&a, &b);
        assert_eq!(r.dtype(), DType::Bf16);
        for v in r.to_vec() {
            assert_eq!(DType::Bf16.round(v), v);
        }
    }

    #[test]
    fn matmul_known() {
        runtime::reset();
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        assert_eq!(matmul(&a, &b).to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        runtime::reset();
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let eye = t(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        assert_eq!(matmul(&a, &eye).to_vec(), a.to_vec());
    }

    #[test]
    fn matmul_with_transposed_view() {
        runtime::reset();
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(vec![1.0, 0.0, 2.0, 1.0], &[2, 2]);
        // a @ b^T
        let r = matmul(&a, &b.t());
        assert_eq!(r.to_vec(), vec![1.0, 4.0, 3.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_bad_shapes_panics() {
        runtime::reset();
        matmul(&t(vec![0.0; 6], &[2, 3]), &t(vec![0.0; 4], &[2, 2]));
    }

    #[test]
    fn zero_width_matmul_and_bmm_return_empty() {
        runtime::reset();
        let a = t(vec![0.0; 6], &[2, 3]);
        let b = Tensor::zeros(&[3, 0], DType::F32, Device::Cpu);
        let r = matmul(&a, &b);
        assert_eq!(r.shape(), &[2, 0]);
        assert!(r.to_vec().is_empty());
        let a3 = Tensor::zeros(&[2, 2, 3], DType::F32, Device::Cpu);
        let b3 = Tensor::zeros(&[2, 3, 0], DType::F32, Device::Cpu);
        assert_eq!(bmm(&a3, &b3).shape(), &[2, 2, 0]);
    }

    #[test]
    fn zero_centroid_neg_sqdist_returns_empty() {
        runtime::reset();
        let w = t(vec![1.0, 2.0], &[2, 1]);
        let c = Tensor::zeros(&[0, 1], DType::F32, Device::Cpu);
        let r = neg_sqdist(&w, &c);
        assert_eq!(r.shape(), &[2, 0]);
        assert!(r.to_vec().is_empty());
    }

    #[test]
    fn parallel_matmul_matches_serial_reference() {
        runtime::reset();
        // Big enough to clear PAR_WORK_THRESHOLD and exercise the threaded
        // path; compare row-by-row against a straightforward serial product.
        let (m, k, n) = (96, 64, 80);
        let a = Tensor::randn(&[m, k], DType::F32, Device::Cpu, 21);
        let b = Tensor::randn(&[k, n], DType::F32, Device::Cpu, 22);
        assert!(m * k * n >= super::PAR_WORK_THRESHOLD);
        let fast = matmul(&a, &b).to_vec();
        let (av, bv) = (a.to_vec(), b.to_vec());
        for i in 0..m {
            for j in 0..n {
                let want: f32 = (0..k).map(|p| av[i * k + p] * bv[p * n + j]).sum();
                assert!((fast[i * n + j] - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn parallel_bmm_matches_big_batches() {
        runtime::reset();
        let (ba, m, k, n) = (12, 16, 32, 24);
        let a = Tensor::randn(&[ba, m, k], DType::F32, Device::Cpu, 31);
        let b = Tensor::randn(&[ba, k, n], DType::F32, Device::Cpu, 32);
        assert!(ba * m * k * n >= super::PAR_WORK_THRESHOLD);
        let r = bmm(&a, &b);
        for bi in [0, 5, 11] {
            let ab = matmul(
                &a.slice(0, bi, 1).reshape(&[m, k]),
                &b.slice(0, bi, 1).reshape(&[k, n]),
            );
            let rb = r.slice(0, bi, 1).reshape(&[m, n]);
            assert!(allclose(&ab, &rb, 1e-5));
        }
    }

    #[test]
    fn parallel_neg_sqdist_matches_serial() {
        runtime::reset();
        let (n, k, d) = (2048, 32, 4);
        let w = Tensor::randn(&[n, d], DType::F32, Device::Cpu, 41);
        let c = Tensor::randn(&[k, d], DType::F32, Device::Cpu, 42);
        assert!(n * k * d >= super::PAR_WORK_THRESHOLD);
        let fast = neg_sqdist(&w, &c).to_vec();
        let (wv, cv) = (w.to_vec(), c.to_vec());
        for i in (0..n).step_by(97) {
            for j in 0..k {
                let want: f32 = -(0..d)
                    .map(|p| {
                        let diff = wv[i * d + p] - cv[j * d + p];
                        diff * diff
                    })
                    .sum::<f32>();
                assert!((fast[i * k + j] - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn matmul_advances_clock() {
        runtime::reset();
        let a = Tensor::rand(&[64, 64], DType::F32, Device::gpu(), 1);
        matmul(&a, &a);
        assert!(runtime::sim_seconds() > 0.0);
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        runtime::reset();
        let a = Tensor::randn(&[3, 2, 4], DType::F32, Device::Cpu, 1);
        let b = Tensor::randn(&[3, 4, 5], DType::F32, Device::Cpu, 2);
        let r = bmm(&a, &b);
        for bi in 0..3 {
            let ab = matmul(
                &a.slice(0, bi, 1).reshape(&[2, 4]),
                &b.slice(0, bi, 1).reshape(&[4, 5]),
            );
            let rb = r.slice(0, bi, 1).reshape(&[2, 5]);
            assert!(allclose(&ab, &rb, 1e-6));
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        runtime::reset();
        let x = Tensor::randn(&[7, 11], DType::F32, Device::Cpu, 3);
        let s = softmax_lastdim(&x);
        for row in s.to_vec().chunks(11) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        runtime::reset();
        let x = t(vec![1000.0, 1000.0, -1000.0], &[1, 3]);
        let s = softmax_lastdim(&x).to_vec();
        assert!((s[0] - 0.5).abs() < 1e-5);
        assert!((s[1] - 0.5).abs() < 1e-5);
        assert!(s[2] < 1e-6);
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        runtime::reset();
        let x = Tensor::randn(&[4, 9], DType::F32, Device::Cpu, 5);
        let ls = log_softmax_lastdim(&x).to_vec();
        let s = softmax_lastdim(&x).to_vec();
        for (l, p) in ls.iter().zip(&s) {
            assert!((l.exp() - p).abs() < 1e-5);
        }
    }

    #[test]
    fn reductions() {
        runtime::reset();
        let x = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(sum_all(&x).item(), 21.0);
        assert_eq!(mean_all(&x).item(), 3.5);
        assert_eq!(sum_axis(&x, 0).to_vec(), vec![5.0, 7.0, 9.0]);
        assert_eq!(sum_axis(&x, 1).to_vec(), vec![6.0, 15.0]);
    }

    #[test]
    fn sum_axis_3d() {
        runtime::reset();
        let x = Tensor::arange(24, DType::F32, Device::Cpu).reshape(&[2, 3, 4]);
        let s = sum_axis(&x, 1);
        assert_eq!(s.shape(), &[2, 4]);
        assert_eq!(s.get(&[0, 0]), 0.0 + 4.0 + 8.0);
        assert_eq!(s.get(&[1, 3]), 15.0 + 19.0 + 23.0);
    }

    #[test]
    fn argmax_rows() {
        runtime::reset();
        let x = t(vec![0.1, 0.9, 0.0, 0.3, 0.2, 0.5], &[2, 3]);
        assert_eq!(argmax_lastdim(&x), vec![1, 2]);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        runtime::reset();
        let table = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let g = gather_rows(&table, &[2, 0, 2]);
        assert_eq!(g.to_vec(), vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let back = scatter_add_rows(&g, &[2, 0, 2], 3);
        assert_eq!(back.to_vec(), vec![1.0, 2.0, 0.0, 0.0, 10.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_bad_id_panics() {
        runtime::reset();
        gather_rows(&t(vec![0.0; 4], &[2, 2]), &[5]);
    }

    #[test]
    fn neg_sqdist_known() {
        runtime::reset();
        let w = t(vec![0.0, 1.0, 2.0], &[3, 1]);
        let c = t(vec![0.0, 2.0], &[2, 1]);
        let d = neg_sqdist(&w, &c);
        assert_eq!(d.shape(), &[3, 2]);
        assert_eq!(d.to_vec(), vec![0.0, -4.0, -1.0, -1.0, -4.0, 0.0]);
    }

    #[test]
    fn neg_sqdist_vector_dim() {
        runtime::reset();
        let w = t(vec![0.0, 0.0, 3.0, 4.0], &[2, 2]);
        let c = t(vec![0.0, 0.0], &[1, 2]);
        let d = neg_sqdist(&w, &c);
        assert_eq!(d.to_vec(), vec![0.0, -25.0]);
    }

    #[test]
    fn closeness_helpers() {
        runtime::reset();
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![1.0, 2.1], &[2]);
        assert!((max_abs_diff(&a, &b) - 0.1).abs() < 1e-6);
        assert!(allclose(&a, &b, 0.2));
        assert!(!allclose(&a, &b, 0.05));
        assert!((l2_norm(&t(vec![3.0, 4.0], &[2])) - 5.0).abs() < 1e-6);
    }

    proptest! {
        /// Softmax rows always sum to 1 and stay in (0, 1].
        #[test]
        fn prop_softmax_simplex(rows in 1usize..6, cols in 1usize..8, seed in any::<u64>()) {
            runtime::reset();
            let x = Tensor::randn(&[rows, cols], DType::F32, Device::Cpu, seed);
            let s = softmax_lastdim(&x);
            for row in s.to_vec().chunks(cols) {
                let sum: f32 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
                prop_assert!(row.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
            }
        }

        /// Matmul distributes over addition: (a+b)c = ac + bc.
        #[test]
        fn prop_matmul_distributive(m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in any::<u64>()) {
            runtime::reset();
            let a = Tensor::randn(&[m, k], DType::F32, Device::Cpu, seed);
            let b = Tensor::randn(&[m, k], DType::F32, Device::Cpu, seed.wrapping_add(1));
            let c = Tensor::randn(&[k, n], DType::F32, Device::Cpu, seed.wrapping_add(2));
            let lhs = matmul(&add(&a, &b), &c);
            let rhs = add(&matmul(&a, &c), &matmul(&b, &c));
            prop_assert!(allclose(&lhs, &rhs, 1e-3));
        }

        /// neg_sqdist is always ≤ 0 and zero exactly on identical rows.
        #[test]
        fn prop_neg_sqdist_sign(n in 1usize..6, k in 1usize..6, seed in any::<u64>()) {
            runtime::reset();
            let w = Tensor::randn(&[n, 1], DType::F32, Device::Cpu, seed);
            let d = neg_sqdist(&w, &w.slice(0, 0, k.min(n)));
            prop_assert!(d.to_vec().iter().all(|&v| v <= 0.0));
            // Diagonal of self-distance is zero.
            for i in 0..k.min(n) {
                prop_assert_eq!(d.get(&[i, i]), 0.0);
            }
        }

        /// scatter_add is the adjoint of gather: <gather(T,ids), G> == <T, scatter(G,ids)>.
        #[test]
        fn prop_gather_scatter_adjoint(v in 1usize..6, d in 1usize..4, n in 1usize..8, seed in any::<u64>()) {
            runtime::reset();
            let table = Tensor::randn(&[v, d], DType::F32, Device::Cpu, seed);
            let ids: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % v).collect();
            let g = Tensor::randn(&[n, d], DType::F32, Device::Cpu, seed.wrapping_add(9));
            let lhs: f32 = mul(&gather_rows(&table, &ids), &g).with_data(|x| x.iter().sum());
            let rhs: f32 = mul(&table, &scatter_add_rows(&g, &ids, v)).with_data(|x| x.iter().sum());
            prop_assert!((lhs - rhs).abs() < 1e-3);
        }
    }
}

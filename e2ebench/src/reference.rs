//! Reference computations that share no code with the layers under test.
//!
//! * [`forward`] re-runs a zoo model node by node: standard convolutions go
//!   through `Im2colBackend` (the im2col+GEMM baseline), while depthwise
//!   convolutions, pooling, the affine, ReLU, the fully-connected layers
//!   and softmax are computed here, the last two in `f64`. Nothing in it
//!   calls `ndirect_core` or `ndirect_models::ops`.
//! * [`conv_f64`] is a naive `f64` convolution that also returns, per
//!   output, the bound `γ·Σ|x·w|` a correct `f32` result must meet.

use ndirect_baselines::{run_backend, Im2colBackend};
use ndirect_models::{ConvLayer, Model, Node};
use ndirect_tensor::{ActLayout, ConvShape, Filter, Tensor4};
use ndirect_threads::StaticPool;

/// What one reference pass produces.
pub struct Forward {
    /// The last FC layer's output, one row per sample.
    pub logits: Vec<f64>,
    /// Class probabilities, one row per sample.
    pub probs: Vec<f64>,
    /// The input activation of every FC node, in execution order.
    pub fc_inputs: Vec<Tensor4>,
    /// The input activation of every depthwise node that the engine fuses
    /// with the following pointwise conv, in execution order.
    pub dwpw_inputs: Vec<Tensor4>,
}

/// Whether `Engine::with_dwpw_fusion(true)` runs the depthwise node at
/// `i` and the pointwise conv after it as one fused block (the engine's
/// own condition: identity depthwise affine, then a 1×1 stride-1 unpadded
/// conv).
pub fn fuses_dwpw(model: &Model, i: usize) -> bool {
    let Some(Node::DepthwiseConv(dw)) = model.nodes.get(i) else {
        return false;
    };
    dw.scale.iter().all(|&s| s == 1.0)
        && dw.shift.iter().all(|&b| b == 0.0)
        && matches!(
            model.nodes.get(i + 1),
            Some(Node::Conv(pw)) if pw.rs == 1 && pw.stride == 1 && pw.pad == 0
        )
}

fn affine_relu(t: &mut Tensor4, layer: &ConvLayer) {
    let (n, c, h, w) = t.dims();
    let hw = h * w;
    let data = t.as_mut_slice();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * hw;
            for x in &mut data[base..base + hw] {
                let y = layer.scale[ci] * *x + layer.shift[ci];
                *x = if layer.relu { y.max(0.0) } else { y };
            }
        }
    }
}

fn conv(pool: &StaticPool, act: &Tensor4, layer: &ConvLayer) -> Result<Tensor4, String> {
    let (n, c, h, w) = act.dims();
    let shape = layer.try_shape_for(n, c, h, w).map_err(|e| e.to_string())?;
    let mut out = run_backend(&Im2colBackend, pool, act, &layer.filter, &shape);
    affine_relu(&mut out, layer);
    Ok(out)
}

fn depthwise(act: &Tensor4, layer: &ConvLayer) -> Result<Tensor4, String> {
    let (n, c, h, w) = act.dims();
    let s = layer
        .try_depthwise_shape_for(n, c, h, w)
        .map_err(|e| e.to_string())?;
    let (p, q) = (s.p(), s.q());
    let mut out = Tensor4::zeros(n, c, p, q, ActLayout::Nchw);
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..p {
                for ox in 0..q {
                    let mut acc = 0.0f64;
                    for r in 0..s.r {
                        for t in 0..s.s {
                            let iy = (oy * s.stride + r) as isize - s.pad.h as isize;
                            let ix = (ox * s.stride + t) as isize - s.pad.w as isize;
                            if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                                acc += f64::from(act.at(ni, ci, iy as usize, ix as usize))
                                    * f64::from(layer.filter.at(ci, 0, r, t));
                            }
                        }
                    }
                    *out.at_mut(ni, ci, oy, ox) = acc as f32;
                }
            }
        }
    }
    affine_relu(&mut out, layer);
    Ok(out)
}

fn max_pool(act: &Tensor4, k: usize, stride: usize, pad: usize) -> Tensor4 {
    let (n, c, h, w) = act.dims();
    let (p, q) = (
        (h + 2 * pad - k) / stride + 1,
        (w + 2 * pad - k) / stride + 1,
    );
    let mut out = Tensor4::zeros(n, c, p, q, ActLayout::Nchw);
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..p {
                for ox in 0..q {
                    let mut m = f32::NEG_INFINITY;
                    for r in 0..k {
                        for t in 0..k {
                            let iy = (oy * stride + r) as isize - pad as isize;
                            let ix = (ox * stride + t) as isize - pad as isize;
                            if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                                m = m.max(act.at(ni, ci, iy as usize, ix as usize));
                            }
                        }
                    }
                    *out.at_mut(ni, ci, oy, ox) = m;
                }
            }
        }
    }
    out
}

fn global_avg_pool(act: &Tensor4) -> Tensor4 {
    let (n, c, h, w) = act.dims();
    let mut out = Tensor4::zeros(n, c, 1, 1, ActLayout::Nchw);
    for ni in 0..n {
        for ci in 0..c {
            let base = act.offset(ni, ci, 0, 0);
            let sum: f64 = act.as_slice()[base..base + h * w]
                .iter()
                .map(|&x| f64::from(x))
                .sum();
            *out.at_mut(ni, ci, 0, 0) = (sum / (h * w) as f64) as f32;
        }
    }
    out
}

/// Runs `model` on `input` as described in the module docs.
pub fn forward(pool: &StaticPool, model: &Model, input: &Tensor4) -> Result<Forward, String> {
    let mut act = input.clone();
    let mut saved: Option<Tensor4> = None;
    let mut logits: Option<Vec<f64>> = None;
    let mut fc_inputs = Vec::new();
    let mut dwpw_inputs = Vec::new();
    for (i, node) in model.nodes.iter().enumerate() {
        match node {
            Node::Conv(layer) => act = conv(pool, &act, layer)?,
            Node::DepthwiseConv(layer) => {
                if fuses_dwpw(model, i) {
                    dwpw_inputs.push(act.clone());
                }
                act = depthwise(&act, layer)?;
            }
            Node::MaxPool(k, s, p) => act = max_pool(&act, *k, *s, *p),
            Node::GlobalAvgPool => act = global_avg_pool(&act),
            Node::Fc(fc) => {
                fc_inputs.push(act.clone());
                let (n, c, h, w) = act.dims();
                let in_dim = c * h * w;
                let mut y = vec![0.0f64; n * fc.out];
                for ni in 0..n {
                    let x = &act.as_slice()[ni * in_dim..(ni + 1) * in_dim];
                    for (o, yo) in y[ni * fc.out..(ni + 1) * fc.out].iter_mut().enumerate() {
                        let row = &fc.weight[o * in_dim..(o + 1) * in_dim];
                        let dot: f64 = row
                            .iter()
                            .zip(x)
                            .map(|(&a, &b)| f64::from(a) * f64::from(b))
                            .sum();
                        let v = dot + f64::from(fc.bias[o]);
                        *yo = if fc.relu { v.max(0.0) } else { v };
                    }
                }
                act = Tensor4::zeros(n, fc.out, 1, 1, ActLayout::Nchw);
                for (dst, &v) in act.as_mut_slice().iter_mut().zip(&y) {
                    *dst = v as f32;
                }
                logits = Some(y);
            }
            Node::Softmax => {
                let y = logits.take().ok_or("softmax without a preceding FC")?;
                let classes = act.c();
                let mut probs = Vec::with_capacity(y.len());
                for row in y.chunks(classes) {
                    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let sum: f64 = row.iter().map(|v| (v - max).exp()).sum();
                    probs.extend(row.iter().map(|v| (v - max).exp() / sum));
                }
                return Ok(Forward {
                    logits: y,
                    probs,
                    fc_inputs,
                    dwpw_inputs,
                });
            }
            Node::Save => saved = Some(act.clone()),
            Node::ResidualJoin(proj) => {
                let shortcut = saved.take().ok_or("residual join without a save")?;
                let shortcut = match proj {
                    Some(layer) => conv(pool, &shortcut, layer)?,
                    None => shortcut,
                };
                for (d, s) in act.as_mut_slice().iter_mut().zip(shortcut.as_slice()) {
                    *d = (*d + s).max(0.0);
                }
            }
        }
    }
    Err(format!("{} does not end in softmax", model.name))
}

/// A naive `f64` convolution of an `NCHW` input with a `KCRS` filter.
/// Returns the exact result and, per output, the error bound
/// `2·n·u·Σ|x·w|` (`n = C·R·S`, `u = 2⁻²⁴`) that any `f32` evaluation
/// order meets (Higham's `γ_n` with a factor-2 margin).
pub fn conv_f64(input: &Tensor4, filter: &Filter, shape: &ConvShape) -> (Vec<f64>, Vec<f64>) {
    let (p, q) = (shape.p(), shape.q());
    // 2·n·u with u = ε/2.
    let gamma = (shape.c * shape.r * shape.s) as f64 * f64::from(f32::EPSILON);
    let mut exact = Vec::with_capacity(shape.n * shape.k * p * q);
    let mut bound = Vec::with_capacity(exact.capacity());
    for ni in 0..shape.n {
        for k in 0..shape.k {
            for oy in 0..p {
                for ox in 0..q {
                    let (mut acc, mut abs) = (0.0f64, 0.0f64);
                    for c in 0..shape.c {
                        for r in 0..shape.r {
                            for s in 0..shape.s {
                                let iy = (oy * shape.stride + r) as isize - shape.pad.h as isize;
                                let ix = (ox * shape.stride + s) as isize - shape.pad.w as isize;
                                if (0..shape.h as isize).contains(&iy)
                                    && (0..shape.w as isize).contains(&ix)
                                {
                                    let t = f64::from(input.at(ni, c, iy as usize, ix as usize))
                                        * f64::from(filter.at(k, c, r, s));
                                    acc += t;
                                    abs += t.abs();
                                }
                            }
                        }
                    }
                    exact.push(acc);
                    bound.push(gamma * abs + f64::from(f32::MIN_POSITIVE));
                }
            }
        }
    }
    (exact, bound)
}

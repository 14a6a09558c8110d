"""Differentiable NN operations: convolution, pooling, normalization, loss.

Convolution uses im2col + GEMM, the same lowering a weight-stationary
accelerator performs spatially: the unrolled ``(Cin*KH*KW)`` axis of the
column matrix is exactly the product axis GEO's MAC rows OR/accumulate
over, which keeps this software reference aligned with the hardware model
in :mod:`repro.arch`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.tensor import Tensor


# --- im2col machinery ---------------------------------------------------------


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ShapeError(
            f"convolution output collapsed: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """Unroll sliding windows: ``(N, C, H, W) -> (N, C, KH, KW, OH, OW)``."""
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    # windows: (N, C, H', W', KH, KW) -> strided output positions
    windows = windows[:, :, ::stride, ::stride][:, :, :oh, :ow]
    return np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add the inverse of :func:`im2col`.

    ``cols`` has shape ``(N, C, KH, KW, OH, OW)``.
    """
    n, c, h, w = x_shape
    _, _, kh, kw, oh, ow = cols.shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols[
                :, :, i, j
            ]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


# --- layers as functions --------------------------------------------------------


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution. ``x``: (N, Cin, H, W); ``weight``: (Cout, Cin, KH, KW)."""
    x = Tensor.as_tensor(x)
    weight = Tensor.as_tensor(weight)
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ShapeError(f"input channels {cin} != weight channels {cin_w}")

    cols = im2col(x.data, kh, kw, stride, padding)  # (N, C, KH, KW, OH, OW)
    oh, ow = cols.shape[-2:]
    cols_mat = cols.reshape(n, cin * kh * kw, oh * ow)
    w_mat = weight.data.reshape(cout, cin * kh * kw)
    out = np.einsum("ok,nkp->nop", w_mat, cols_mat, optimize=True)
    out = out.reshape(n, cout, oh, ow)
    if bias is not None:
        out = out + bias.data.reshape(1, cout, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(n, cout, oh * ow)
        if weight.requires_grad:
            dw = np.einsum("nop,nkp->ok", grad_mat, cols_mat, optimize=True)
            weight._accumulate(dw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dcols = np.einsum("ok,nop->nkp", w_mat, grad_mat, optimize=True)
            dcols = dcols.reshape(n, cin, kh, kw, oh, ow)
            x._accumulate(col2im(dcols, x.shape, stride, padding))

    return Tensor._make(out, parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fully-connected layer. ``x``: (N, Fin); ``weight``: (Fout, Fin)."""
    if weight.ndim != 2 or x.shape[-1] != weight.shape[1]:
        raise ShapeError(
            f"input shape {x.shape} incompatible with weight {weight.shape}"
        )
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling. GEO implements this as computation skipping in the
    output converters (parallel counters add neighbouring outputs)."""
    stride = stride or kernel
    x = Tensor.as_tensor(x)
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)
    windows = im2col(x.data, kernel, kernel, stride, 0)
    out = windows.mean(axis=(2, 3))

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        scale = 1.0 / (kernel * kernel)
        dcols = np.broadcast_to(
            grad[:, :, None, None] * scale, (n, c, kernel, kernel, oh, ow)
        ).astype(np.float32)
        x._accumulate(col2im(dcols, x.shape, stride, 0))

    return Tensor._make(out, (x,), backward)


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling (the paper supports it but prefers average pooling)."""
    stride = stride or kernel
    x = Tensor.as_tensor(x)
    n, c, h, w = x.shape
    windows = im2col(x.data, kernel, kernel, stride, 0)
    oh, ow = windows.shape[-2:]
    flat = windows.reshape(n, c, kernel * kernel, oh, ow)
    arg = flat.argmax(axis=2)
    out = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dflat = np.zeros_like(flat)
        np.put_along_axis(dflat, arg[:, :, None], grad[:, :, None], axis=2)
        dcols = dflat.reshape(n, c, kernel, kernel, oh, ow)
        x._accumulate(col2im(dcols, x.shape, stride, 0))

    return Tensor._make(out, (x,), backward)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over (N, C, H, W) or (N, C).

    Running statistics are updated in place when ``training`` is true
    (they are plain numpy buffers, not graph nodes).
    """
    x = Tensor.as_tensor(x)
    if x.ndim == 4:
        axes = (0, 2, 3)
        view = (1, -1, 1, 1)
    elif x.ndim == 2:
        axes = (0,)
        view = (1, -1)
    else:
        raise ShapeError(f"batch_norm expects 2-D or 4-D input, got {x.ndim}-D")

    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean.reshape(view)) * inv_std.reshape(view)
    out = gamma.data.reshape(view) * x_hat + beta.data.reshape(view)

    def backward(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            gamma._accumulate((grad * x_hat).sum(axis=axes))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=axes))
        if not x.requires_grad:
            return
        g = grad * gamma.data.reshape(view)
        if training:
            m = float(np.prod([x.shape[a] for a in axes]))
            dxhat_sum = g.sum(axis=axes, keepdims=True)
            dxhat_xhat_sum = (g * x_hat).sum(axis=axes, keepdims=True)
            dx = (
                inv_std.reshape(view)
                / m
                * (m * g - dxhat_sum - x_hat * dxhat_xhat_sum)
            )
        else:
            dx = g * inv_std.reshape(view)
        x._accumulate(dx.astype(np.float32))

    return Tensor._make(out, (x, gamma, beta), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy against integer labels."""
    labels = np.asarray(labels)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ShapeError(
            f"labels shape {labels.shape} does not match batch size {n}"
        )
    max_logits = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - max_logits
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss_value = -log_probs[np.arange(n), labels].mean()

    probs = np.exp(log_probs)

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        dlogits = probs.copy()
        dlogits[np.arange(n), labels] -= 1.0
        logits._accumulate(dlogits * (float(grad) / n))

    return Tensor._make(np.float32(loss_value), (logits,), backward)


def accuracy(logits: np.ndarray | Tensor, labels: np.ndarray) -> float:
    """Top-1 classification accuracy in [0, 1]."""
    if isinstance(logits, Tensor):
        logits = logits.data
    predictions = logits.argmax(axis=1)
    return float((predictions == np.asarray(labels)).mean())

"""Dense NCHW tensors and the primitive kernels every network block is built from.

Everything is 32-bit float and pure: kernels never mutate their inputs.
Outputs are read-only, so sharing them is safe: `split_channels` returns
views of a single image's channels. Padded convolutions and pools read a
bordered copy of the input from `_pad`: a new array filled with the border
value (0 for convolution, -inf for pooling) with the input copied into its
interior, bitwise equal to `np.pad` at a fraction of its per-call cost.
Every convolution (pointwise, dense, grouped or depthwise) runs one
algorithm: im2col as one strided window view of the padded input, copied
once into columns, then one matrix multiply batched over the groups. Max
pooling is separable: a running maximum over k strided row slices, then over
k strided column slices. Both are pinned to their direct definitions; the
test suite checks them against independent naive implementations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ConvSpec",
    "BatchNormParams",
    "conv2d",
    "fold_batchnorm",
    "silu",
    "sigmoid",
    "maxpool2d",
    "upsample_nearest2x",
    "concat_channels",
    "split_channels",
    "softmax_lastaxis",
    "conv_output_dim",
]


class Tensor:
    """Rank-4 float32 array laid out batch, channel, height, width.

    The wrapped buffer is contiguous and marked read-only, so feature maps can
    be shared between graph layers without defensive copies.
    """

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        arr = np.array(data, dtype=np.float32, order="C")
        if arr.ndim != 4:
            raise ValueError(f"tensor must be rank 4 (NCHW), got rank {arr.ndim}")
        arr.flags.writeable = False
        self.data: np.ndarray = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path: take ownership of a freshly computed array.
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        arr.flags.writeable = False
        t = object.__new__(cls)
        t.data = arr
        return t

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def h(self) -> int:
        return self.data.shape[2]

    @property
    def w(self) -> int:
        return self.data.shape[3]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    def __add__(self, other: "Tensor") -> "Tensor":
        if self.shape != other.shape:
            raise ValueError(f"cannot add tensors of shapes {self.shape} and {other.shape}")
        return Tensor._wrap(self.data + other.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


# The 4 bytes of float32 0 and 1 that every placeholder parameter views.
_FILL = {0.0: np.float32(0).tobytes(), 1.0: np.float32(1).tobytes()}


def _placeholder(shape: tuple[int, ...], value: float) -> np.ndarray:
    """A read-only float32 array of `shape` holding `value` (0 or 1) in every
    element, with no buffer of its own: all its strides are 0, so it views one
    shared 4-byte constant. A fresh graph's parameters are these; loading a
    state replaces them, never writes into them."""
    return np.ndarray(shape, np.float32, _FILL[value], 0, (0,) * len(shape))


def _check_variance(var: np.ndarray, where: str = "") -> None:
    if not (np.isfinite(var) & (var >= 0)).all():
        raise ValueError(f"{where}running variance must be finite and non-negative")


def conv_output_dim(d: int, k: int, stride: int, padding: int) -> int:
    """Output extent along one axis: floor((d + 2p - k) / s) + 1."""
    return (d + 2 * padding - k) // stride + 1


@dataclass
class ConvSpec:
    """Geometry plus parameters of one 2-D convolution.

    Constraints: square kernel of size 1 or 3, stride 1 or 2; `padding` is not
    a field but always the shape-preserving k//2. Weight layout is
    (out_channels, in_channels // groups, k, k); bias is optional. Without a
    weight, the weight is a read-only zero placeholder.
    """

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    groups: int = 1
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kernel not in (1, 3):
            raise ValueError(f"kernel must be 1 or 3, got {self.kernel}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if self.groups < 1:
            raise ValueError("groups must be positive")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"channels ({self.in_channels} in, {self.out_channels} out) "
                f"not divisible by groups={self.groups}"
            )
        wshape = (self.out_channels, self.in_channels // self.groups, self.kernel, self.kernel)
        if self.weight is None:
            self.weight = _placeholder(wshape, 0.0)
        else:
            self.weight = np.asarray(self.weight, dtype=np.float32)
            if self.weight.shape != wshape:
                raise ValueError(f"weight shape {self.weight.shape} does not match spec {wshape}")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float32)
            if self.bias.shape != (self.out_channels,):
                raise ValueError(
                    f"bias shape {self.bias.shape} does not match ({self.out_channels},)"
                )

    @property
    def padding(self) -> int:
        return self.kernel // 2


@dataclass
class BatchNormParams:
    """Per-channel inference-time batch-norm statistics and affine parameters."""

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-3

    def __post_init__(self) -> None:
        self.gamma = np.asarray(self.gamma, dtype=np.float32)
        self.beta = np.asarray(self.beta, dtype=np.float32)
        self.mean = np.asarray(self.mean, dtype=np.float32)
        self.var = np.asarray(self.var, dtype=np.float32)
        shapes = {a.shape for a in (self.gamma, self.beta, self.mean, self.var)}
        if len(shapes) != 1 or self.gamma.ndim != 1:
            raise ValueError("batch-norm parameters must be 1-D arrays of equal length")
        _check_variance(self.var)
        if not self.eps > 0:
            raise ValueError("epsilon must be positive")

    @property
    def channels(self) -> int:
        return int(self.gamma.shape[0])

    @classmethod
    def identity(cls, channels: int, eps: float = 1e-3) -> "BatchNormParams":
        """Unit gamma and variance, zero beta and mean, as read-only placeholders."""
        one, zero = _placeholder((channels,), 1.0), _placeholder((channels,), 0.0)
        return cls(gamma=one, beta=zero, mean=zero, var=one, eps=eps)

    def scale_shift(self) -> tuple[np.ndarray, np.ndarray]:
        """Fold statistics into a per-channel (scale, shift) pair."""
        scale = self.gamma / np.sqrt(self.var + np.float32(self.eps))
        shift = self.beta - self.mean * scale
        return scale.astype(np.float32), shift.astype(np.float32)


def _pad(data: np.ndarray, p: int, value: float) -> np.ndarray:
    # Border an (N, C, H, W) array by p cells of `value` on each spatial side.
    n, c, h, w = data.shape
    out = np.full((n, c, h + 2 * p, w + 2 * p), value, dtype=data.dtype)
    out[:, :, p : p + h, p : p + w] = data
    return out


def conv2d(x: Tensor, spec: ConvSpec) -> Tensor:
    """2-D convolution with zero padding, exact direct-convolution semantics.

    Output dims are N x out_channels x floor((H+2p-k)/s)+1 x floor((W+2p-k)/s)+1.
    """
    if x.c != spec.in_channels:
        raise ValueError(f"conv2d: input has {x.c} channels, spec expects {spec.in_channels}")
    k, s, p, g = spec.kernel, spec.stride, spec.padding, spec.groups
    oh = conv_output_dim(x.h, k, s, p)
    ow = conv_output_dim(x.w, k, s, p)
    if oh <= 0 or ow <= 0:
        raise ValueError(f"conv2d: non-positive output dims {oh}x{ow} for input {x.h}x{x.w}")

    data = _pad(x.data, p, 0.0) if p else x.data
    n, c_out = x.n, spec.out_channels
    cpg, opg = x.c // g, c_out // g
    # im2col through one view of data's buffer: axis (ky, kx) steps one cell,
    # axis (oy, ox) one stride. Its extent (o-1)*s + k never passes the padded
    # input, by conv_output_dim, and numpy checks it against the buffer. Rows
    # are ordered (group, channel in group, ky, kx), so one matmul batched over
    # the groups does every conv: pointwise, dense, grouped and depthwise. A
    # stride-1 1x1 view is the input itself, so ascontiguousarray copies
    # nothing there.
    sn, sc, sh, sw = data.strides
    win = np.ndarray(
        (n, x.c, k, k, oh, ow), np.float32, data, 0, (sn, sc, sh, sw, s * sh, s * sw)
    )
    cols = np.ascontiguousarray(win).reshape(n, g, cpg * k * k, oh * ow)
    out = np.matmul(spec.weight.reshape(g, opg, cpg * k * k), cols)

    # matmul allocates `out`, so the bias can go in place.
    out = out.reshape(n, c_out, oh, ow)
    if spec.bias is not None:
        out += spec.bias.reshape(1, c_out, 1, 1)
    return Tensor._wrap(out)


def fold_batchnorm(spec: ConvSpec, bn: BatchNormParams) -> ConvSpec:
    """Fuse a batch-norm that follows `spec` into an equivalent convolution.

    Per channel: scale = gamma / sqrt(var + eps); the folded weight is the
    original scaled by that factor and the folded bias absorbs mean and beta.
    """
    if bn.channels != spec.out_channels:
        raise ValueError(
            f"fold_batchnorm: bn has {bn.channels} channels, conv outputs {spec.out_channels}"
        )
    scale, shift = bn.scale_shift()
    weight = spec.weight * scale[:, None, None, None]
    bias = shift if spec.bias is None else spec.bias * scale + shift
    return ConvSpec(
        in_channels=spec.in_channels,
        out_channels=spec.out_channels,
        kernel=spec.kernel,
        stride=spec.stride,
        groups=spec.groups,
        weight=weight,
        bias=bias,
    )


def sigmoid(a: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-a)) of a float array, as a new float32 array;
    image in [0, 1]. It is computed in float64 and rounded once to float32,
    so it is exactly monotone: a float32-only form can step down by an ulp
    where rounding errors of exp, the add and the reciprocal meet. Where
    exp(-a) overflows to inf the reciprocal is exactly 0, the correct limit,
    so the overflow is silenced."""
    e = np.negative(a, dtype=np.float64)
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    e += 1
    return np.reciprocal(e, out=e).astype(np.float32)


def silu(x: Tensor) -> Tensor:
    """Elementwise x * sigmoid(x) in float32: x times the reciprocal of
    1 + exp(-x). Where exp(-x) overflows to inf the product is -0.0, the
    correct limit, so the overflow is silenced."""
    d = np.negative(x.data)
    with np.errstate(over="ignore"):
        np.exp(d, out=d)
    d += 1
    np.reciprocal(d, out=d)
    return Tensor._wrap(np.multiply(d, x.data, out=d))


def _max_taps(a: np.ndarray, axis: int, k: int, stride: int, n_out: int) -> np.ndarray:
    # Running maximum over k adjacent strided slices along one axis: output i
    # is the max of a[i*stride : i*stride + k] on that axis.
    index = [slice(None)] * a.ndim
    index[axis] = slice(0, (n_out - 1) * stride + 1, stride)
    out = a[tuple(index)].copy()
    for i in range(1, k):
        index[axis] = slice(i, i + (n_out - 1) * stride + 1, stride)
        np.maximum(out, a[tuple(index)], out=out)
    return out


def maxpool2d(x: Tensor, k: int, stride: int, padding: int) -> Tensor:
    """Max pooling; padded cells are -inf so they never win over real values."""
    if k < 1:
        raise ValueError("pool kernel must be >= 1")
    if stride < 1:
        raise ValueError("pool stride must be >= 1")
    if padding < 0 or padding > k // 2:
        raise ValueError(f"pool padding must be in [0, {k // 2}] for kernel {k}")
    oh = conv_output_dim(x.h, k, stride, padding)
    ow = conv_output_dim(x.w, k, stride, padding)
    if oh <= 0 or ow <= 0:
        raise ValueError(f"maxpool2d: non-positive output dims {oh}x{ow}")
    data = _pad(x.data, padding, -np.inf) if padding else x.data
    # Separable: reduce each window's k rows first, then its k columns.
    rows = _max_taps(data, 2, k, stride, oh)
    return Tensor._wrap(_max_taps(rows, 3, k, stride, ow))


def upsample_nearest2x(x: Tensor) -> Tensor:
    """Replicate every pixel into a 2x2 block; dims become N x C x 2H x 2W."""
    return Tensor._wrap(np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3))


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel axis, preserving argument order."""
    if not parts:
        raise ValueError("concat_channels needs at least one tensor")
    first = parts[0]
    for t in parts[1:]:
        if (t.n, t.h, t.w) != (first.n, first.h, first.w):
            raise ValueError(
                f"concat_channels: mismatched dims {t.shape} vs {first.shape} "
                "(batch and spatial extents must agree)"
            )
    return Tensor._wrap(np.concatenate([t.data for t in parts], axis=1))


def split_channels(x: Tensor, sizes: Sequence[int]) -> list[Tensor]:
    """Inverse of concat_channels: slice the channel axis into the given sizes."""
    if any(s < 0 for s in sizes):
        raise ValueError(f"split sizes {list(sizes)} include a negative size")
    if sum(sizes) != x.c:
        raise ValueError(f"split sizes {list(sizes)} do not sum to {x.c} channels")
    out, start = [], 0
    for s in sizes:
        out.append(Tensor._wrap(x.data[:, start : start + s]))
        start += s
    return out


def softmax_lastaxis(a: np.ndarray) -> np.ndarray:
    """Row-stable softmax over the last axis of an arbitrary float array."""
    a = np.asarray(a, dtype=np.float32)
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)

"""Composite network blocks: Conv-BN-SiLU, CSP bottleneck family, SPPF, attention.

Blocks own their parameters and expose a pure ``forward``. The leaves are
always ConvBlock instances. Every other block here is a `_Composite`, whose
``children()`` are the sub-blocks its ``__init__`` sets, in that order, which
names the weight-file entries. The last child is its exit, so its width, its
call and its FLOPs follow from that list; a subclass defines only ``forward``
and, where needed, ``_own_flops``. Parameter traversal for counting,
initialization and weight files goes through ``iter_leaf_blocks``.

YOLOv11 fixes their internals, so these are constants, not arguments: 3x3
residual bottlenecks, a C3K of two bottlenecks at half its width, k=5 SPPF
pools, attention keys half a head wide, and C3K, SPPF and C2PSA as wide out
as in. Every ConvBlock.create leaf has batch-norm and no bias.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import (
    BatchNormParams,
    ConvSpec,
    Tensor,
    _check_variance,
    concat_channels,
    conv2d,
    conv_output_dim,
    fold_batchnorm,
    maxpool2d,
    silu,
    softmax_lastaxis,
    split_channels,
)

__all__ = [
    "ConvBlock",
    "Bottleneck",
    "C3K",
    "C3K2",
    "SPPF",
    "AttentionLayer",
    "PSABlock",
    "C2PSA",
    "iter_leaf_blocks",
]

# Cost model for count_flops: multiply-add counts as 2, bias/bn adds count
# out_elems each, sigmoid costs 3 per element and silu 4.
_SILU_COST = 4
_SOFTMAX_COST = 5

_SPPF_POOL = 5  # kernel of each of SPPF's three chained max-pools


class ConvBlock:
    """Convolution, optional batch-norm, optional SiLU; the universal leaf.

    `spec` and `bn` are the parameters of record: `entries`, `set_entry` and
    the FLOP model read them. `forward` runs one convolution with the
    batch-norm folded into its weight and bias (`fold_batchnorm`), computed on
    the first call and cached; a leaf without batch-norm runs `spec` itself.
    That first call also refuses a non-finite folded weight or bias. Fold and
    entry errors name the leaf by `name`: the weight-file path (e.g.
    `layer23.box0.2`) that the graph building it sets, or "conv". Its
    parameters are read-only; `set_entry` replaces one and drops the fold.
    """

    name = "conv"

    def __init__(self, spec: ConvSpec, bn: BatchNormParams | None, act: str = "silu") -> None:
        if act not in ("silu", "none"):
            raise ValueError(f"unsupported activation {act!r}")
        if bn is not None and bn.channels != spec.out_channels:
            raise ValueError(
                f"batch-norm has {bn.channels} channels, conv outputs {spec.out_channels}"
            )
        self.spec = spec
        self.bn = bn
        self.act = act
        self._folded: ConvSpec | None = None

    @classmethod
    def create(
        cls, c_in: int, c_out: int, k: int = 1, stride: int = 1, groups: int = 1, act: str = "silu"
    ) -> "ConvBlock":
        """Zero-initialized conv with identity batch-norm and no bias. Its
        parameters are read-only placeholders that share one constant;
        init_random or load_state replaces them."""
        spec = ConvSpec(in_channels=c_in, out_channels=c_out, kernel=k, stride=stride, groups=groups)
        return cls(spec, BatchNormParams.identity(c_out), act)

    @property
    def out_channels(self) -> int:
        return self.spec.out_channels

    def forward(self, x: Tensor) -> Tensor:
        if self._folded is None:
            self._folded = self._fold()
        y = conv2d(x, self._folded)
        return silu(y) if self.act == "silu" else y

    __call__ = forward

    def _fold(self) -> ConvSpec:
        """The spec `forward` runs. Non-finite parameters (a NaN or Inf weight,
        bias, gamma, beta or mean, or an overflowing fold) raise ValueError
        here, once, rather than spreading through the network."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            folded = self.spec if self.bn is None else fold_batchnorm(self.spec, self.bn)
        for part, arr in (("weight", folded.weight), ("bias", folded.bias)):
            if arr is not None and not np.isfinite(arr).all():
                bad = ~np.isfinite(arr.reshape(len(arr), -1)).all(axis=1)
                raise ValueError(f"{self.name}: weights fold to a non-finite {part} "
                                 f"in output channel {int(np.flatnonzero(bad)[0])}")
        return folded

    def entries(self) -> Iterator[tuple[str, np.ndarray]]:
        """Parameter arrays in canonical order (weight, bias, gamma, beta, mean, var)."""
        yield "weight", self.spec.weight
        if self.spec.bias is not None:
            yield "bias", self.spec.bias
        if self.bn is not None:
            yield "gamma", self.bn.gamma
            yield "beta", self.bn.beta
            yield "mean", self.bn.mean
            yield "var", self.bn.var

    def _holder(self, name: str) -> object:
        # The object whose attribute `name` is entry `name`, or None for a
        # name that is no entry.
        if name in ("weight", "bias"):
            return self.spec
        return self.bn if name in ("gamma", "beta", "mean", "var") else None

    def _check_entry(self, name: str, value: np.ndarray) -> np.ndarray:
        """`value` as the read-only float32 array `set_entry(name, value)` stores,
        copied if the caller can still write to it; sets nothing. Raises KeyError
        for an unknown name, and ValueError naming the entry `f"{self.name}.{name}"`
        for a shape other than the current one or a negative or non-finite variance."""
        current = getattr(self._holder(name), name, None)
        if current is None:
            raise KeyError(name)
        arr = np.asarray(value, dtype=np.float32)
        label = f"{self.name}.{name}"
        if arr.shape != current.shape:
            raise ValueError(
                f"entry {label!r}: shape {tuple(arr.shape)} does not match "
                f"model shape {tuple(current.shape)}"
            )
        if name == "var":
            _check_variance(arr, f"entry {label!r}: ")
        if arr.flags.writeable:
            arr = np.array(arr, copy=arr is value or arr.base is not None)
            arr.flags.writeable = False
        return arr

    def set_entry(self, name: str, value: np.ndarray) -> None:
        self._store(name, self._check_entry(name, value))

    def _store(self, name: str, value: np.ndarray) -> None:
        """Set an entry that `_check_entry` has returned, and drop the fold."""
        self._folded = None
        setattr(self._holder(name), name, value)

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        s = self.spec
        return (
            conv_output_dim(h, s.kernel, s.stride, s.padding),
            conv_output_dim(w, s.kernel, s.stride, s.padding),
        )

    def flops(self, h: int, w: int) -> float:
        oh, ow = self.out_hw(h, w)
        out_elems = self.out_channels * oh * ow
        f = 2.0 * self.spec.weight.size * oh * ow
        if self.spec.bias is not None:
            f += out_elems
        if self.bn is not None:
            f += out_elems
        if self.act == "silu":
            f += _SILU_COST * out_elems
        return f


class _Composite:
    """A block made of named children, whose last child in `children()` is
    its exit. The children are the ConvBlock and `_Composite` attributes that
    `__init__` sets, in the order it sets them; a list attribute (`units`)
    gives its items as m0, m1, ..., and other values (widths, head counts,
    scales) are not children. Subclasses define `forward`, and override
    `_own_flops` when they compute more than their children do (residual
    adds, pools, attention matmuls); calls, width and FLOPs come from here.
    """

    def children(self) -> list[tuple[str, object]]:
        out: list[tuple[str, object]] = []
        for name, value in vars(self).items():
            if isinstance(value, list):
                out += [(f"m{i}", unit) for i, unit in enumerate(value)]
            elif isinstance(value, (ConvBlock, _Composite)):
                out.append((name, value))
        return out

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    @property
    def out_channels(self) -> int:
        return self.children()[-1][1].out_channels

    def flops(self, h: int, w: int) -> float:
        return sum(child.flops(h, w) for _, child in self.children()) + self._own_flops(h, w)

    def _own_flops(self, h: int, w: int) -> float:
        return 0.0


class Bottleneck(_Composite):
    """Two 3x3 conv blocks, c -> int(c * e) -> c, plus the input: x + cv2(cv1(x))."""

    def __init__(self, c: int, e: float = 0.5) -> None:
        c_hidden = int(c * e)
        self.cv1 = ConvBlock.create(c, c_hidden, k=3)
        self.cv2 = ConvBlock.create(c_hidden, c, k=3)

    def forward(self, x: Tensor) -> Tensor:
        return x + self.cv2(self.cv1(x))

    def _own_flops(self, h: int, w: int) -> float:
        return self.out_channels * h * w


class _CSP(_Composite):
    """The split-chain-concatenate `forward` that C3K2 inherits: cv1 makes
    two `c_hidden` halves, the units chain on the last, and cv2 projects the
    concatenation of every intermediate. A subclass sets `c_hidden`, `cv1`,
    `units` and `cv2`, in that order."""

    def forward(self, x: Tensor) -> Tensor:
        ys = split_channels(self.cv1(x), [self.c_hidden, self.c_hidden])
        for unit in self.units:
            ys.append(unit(ys[-1]))
        return self.cv2(concat_channels(ys))


class C3K(_Composite):
    """CSP block without the split that keeps its width c: a chain of two
    bottlenecks plus a parallel bypass conv, concatenated and projected by the
    exit conv."""

    def __init__(self, c: int) -> None:
        c_hidden = c // 2
        self.cv1 = ConvBlock.create(c, c_hidden, k=1)
        self.units = [Bottleneck(c_hidden, e=1.0) for _ in range(2)]
        self.cv2 = ConvBlock.create(c, c_hidden, k=1)  # entry bypass
        self.cv3 = ConvBlock.create(2 * c_hidden, c, k=1)

    def forward(self, x: Tensor) -> Tensor:
        y = self.cv1(x)
        for unit in self.units:
            y = unit(y)
        return self.cv3(concat_channels([y, self.cv2(x)]))


class C3K2(_CSP):
    """The CSP block of YOLOv11: n inner bottlenecks, or C3K blocks if `c3k`."""

    def __init__(self, c1: int, c2: int, n: int, c3k: bool = False, e: float = 0.5) -> None:
        self.c_hidden = int(c2 * e)
        if self.c_hidden < 1:
            raise ValueError("hidden channel count must be positive")
        self.cv1 = ConvBlock.create(c1, 2 * self.c_hidden, k=1)
        unit = C3K if c3k else Bottleneck
        self.units = [unit(self.c_hidden) for _ in range(n)]
        self.cv2 = ConvBlock.create((2 + n) * self.c_hidden, c2, k=1)


class SPPF(_Composite):
    """Spatial pyramid pooling (fast) that keeps its width c: three chained k=5
    max-pools, concatenated with the pre-pool map and projected back to c.
    Equivalent to parallel 5/9/13 pools by the receptive-field identity
    pool5(pool5(x)) == pool9(x)."""

    def __init__(self, c: int) -> None:
        if c % 2:
            raise ValueError(f"SPPF input channels must be even, got {c}")
        c_hidden = c // 2
        self.cv1 = ConvBlock.create(c, c_hidden, k=1)
        self.cv2 = ConvBlock.create(4 * c_hidden, c, k=1)

    def forward(self, x: Tensor) -> Tensor:
        ys = [self.cv1(x)]
        for _ in range(3):
            ys.append(maxpool2d(ys[-1], _SPPF_POOL, 1, _SPPF_POOL // 2))
        return self.cv2(concat_channels(ys))

    def _own_flops(self, h: int, w: int) -> float:
        return 3 * (_SPPF_POOL * _SPPF_POOL - 1) * self.cv1.out_channels * h * w


class AttentionLayer(_Composite):
    """Multi-head self-attention over spatial positions with a depthwise
    positional-encoding conv on the value path."""

    def __init__(self, dim: int, num_heads: int) -> None:
        if dim % num_heads:
            raise ValueError(f"channels ({dim}) must divide evenly into {num_heads} heads")
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.key_dim = self.head_dim // 2
        self.scale = self.key_dim**-0.5
        qk = self.key_dim * num_heads
        self.qkv = ConvBlock.create(dim, dim + 2 * qk, k=1, act="none")
        self.pe = ConvBlock.create(dim, dim, k=3, groups=dim, act="none")
        self.proj = ConvBlock.create(dim, dim, k=1, act="none")

    def _split_qkv(self, x: Tensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        b, hw = x.n, x.h * x.w
        per_head = 2 * self.key_dim + self.head_dim
        qkv = self.qkv(x).data.reshape(b, self.num_heads, per_head, hw)
        q = qkv[:, :, : self.key_dim]
        k = qkv[:, :, self.key_dim : 2 * self.key_dim]
        v = qkv[:, :, 2 * self.key_dim :]
        return q, k, v

    def forward(self, x: Tensor) -> Tensor:
        b, c, h, w = x.shape
        q, k, v = self._split_qkv(x)
        scores = np.matmul(q.transpose(0, 1, 3, 2), k) * np.float32(self.scale)
        attn = softmax_lastaxis(scores)
        mixed = np.matmul(v, attn.transpose(0, 1, 3, 2)).reshape(b, c, h, w)
        pos = self.pe(Tensor._wrap(v.reshape(b, c, h, w)))
        return self.proj(Tensor._wrap(mixed) + pos)

    def _own_flops(self, h: int, w: int) -> float:
        hw = h * w
        per_head = 2.0 * hw * hw * self.key_dim + 2.0 * hw * hw * self.head_dim
        return self.num_heads * (per_head + hw * hw * (1 + _SOFTMAX_COST))


class PSABlock(_Composite):
    """Position-sensitive attention plus a two-conv feed-forward net, both with
    residual connections."""

    def __init__(self, c: int, num_heads: int) -> None:
        self.attn = AttentionLayer(c, num_heads)
        self.ffn1 = ConvBlock.create(c, 2 * c, k=1)
        self.ffn2 = ConvBlock.create(2 * c, c, k=1, act="none")

    def forward(self, x: Tensor) -> Tensor:
        y = x + self.attn(x)
        return y + self.ffn2(self.ffn1(y))

    def _own_flops(self, h: int, w: int) -> float:
        return 2 * self.out_channels * h * w  # two residual adds


class C2PSA(_Composite):
    """CSP-wrapped attention that keeps its width c: split the entry output in
    halves, run PSA blocks on one half, concatenate, and project back to c."""

    def __init__(self, c: int, n: int) -> None:
        self.c_hidden = c // 2
        if self.c_hidden < 1:
            raise ValueError("hidden channel count must be positive")
        self.cv1 = ConvBlock.create(c, 2 * self.c_hidden, k=1)
        heads = max(1, self.c_hidden // 64)
        self.units = [PSABlock(self.c_hidden, heads) for _ in range(n)]
        self.cv2 = ConvBlock.create(2 * self.c_hidden, c, k=1)

    def forward(self, x: Tensor) -> Tensor:
        a, b = split_channels(self.cv1(x), [self.c_hidden, self.c_hidden])
        for unit in self.units:
            b = unit(b)
        return self.cv2(concat_channels([a, b]))


def iter_leaf_blocks(block: object, prefix: str = "") -> Iterator[tuple[str, ConvBlock]]:
    """Depth-first traversal down to ConvBlock leaves, yielding dotted paths."""
    if isinstance(block, ConvBlock):
        yield prefix, block
        return
    for name, child in block.children():  # type: ignore[attr-defined]
        child_prefix = f"{prefix}.{name}" if prefix else name
        yield from iter_leaf_blocks(child, child_prefix)

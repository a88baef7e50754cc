"""Declarative assembly of the full detector: backbone, SPPF/attention neck,
PAN-style fusion path, and the anchor-free multi-scale head, for the five
scaling variants n/s/m/l/x. Also parameter and FLOP accounting, seeded random
initialization, and strict weight-file population. The forward pass, shape
inference and FLOP accounting share one layer walker.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .blocks import C2PSA, C3K2, SPPF, ConvBlock, _Composite, iter_leaf_blocks
from .tensor import Tensor, _placeholder, concat_channels, upsample_nearest2x

__all__ = [
    "VariantSpec",
    "LayerSpec",
    "ModelGraph",
    "DetectHead",
    "VARIANTS",
    "build_graph",
]


@dataclass(frozen=True)
class VariantSpec:
    """Compound-scaling knobs for one model size."""

    name: str
    depth_multiple: float
    width_multiple: float
    max_channels: int


VARIANTS: dict[str, VariantSpec] = {
    "n": VariantSpec("n", 0.50, 0.25, 1024),
    "s": VariantSpec("s", 0.50, 0.50, 1024),
    "m": VariantSpec("m", 0.50, 1.00, 512),
    "l": VariantSpec("l", 1.00, 1.00, 512),
    "x": VariantSpec("x", 1.00, 1.50, 512),
}

# Variants that upgrade every C3K2 inner unit to a full C3K block.
_DEEP_C3K_VARIANTS = ("m", "l", "x")

# Base (unscaled) layer plan. froms use -1 for the previous layer; channel
# widths are scaled per variant at build time. Every ConvBlock layer is a 3x3
# stride-2 downsample, and every C3K2 and C2PSA layer has _BASE_UNITS inner
# units before depth scaling. The early C3K2 stages run at a narrower hidden
# ratio, which keeps the compute of the high-resolution stages in budget.
# SPPF and C2PSA keep their input width.
_BASE_LAYERS: list[tuple[str, list[int], dict]] = [
    ("ConvBlock", [-1], dict(c_out=64)),                          # 0  P1/2
    ("ConvBlock", [-1], dict(c_out=128)),                         # 1  P2/4
    ("C3K2", [-1], dict(c_out=256, c3k=False, e=0.25)),           # 2
    ("ConvBlock", [-1], dict(c_out=256)),                         # 3  P3/8
    ("C3K2", [-1], dict(c_out=512, c3k=False, e=0.25)),           # 4
    ("ConvBlock", [-1], dict(c_out=512)),                         # 5  P4/16
    ("C3K2", [-1], dict(c_out=512, c3k=True, e=0.5)),             # 6
    ("ConvBlock", [-1], dict(c_out=1024)),                        # 7  P5/32
    ("C3K2", [-1], dict(c_out=1024, c3k=True, e=0.5)),            # 8
    ("SPPF", [-1], {}),                                           # 9
    ("C2PSA", [-1], {}),                                          # 10
    ("Upsample", [-1], {}),                                       # 11
    ("Concat", [-1, 6], {}),                                      # 12
    ("C3K2", [-1], dict(c_out=512, c3k=False, e=0.5)),            # 13
    ("Upsample", [-1], {}),                                       # 14
    ("Concat", [-1, 4], {}),                                      # 15
    ("C3K2", [-1], dict(c_out=256, c3k=False, e=0.5)),            # 16 P3 out
    ("ConvBlock", [-1], dict(c_out=256)),                         # 17
    ("Concat", [-1, 13], {}),                                     # 18
    ("C3K2", [-1], dict(c_out=512, c3k=False, e=0.5)),            # 19 P4 out
    ("ConvBlock", [-1], dict(c_out=512)),                         # 20
    ("Concat", [-1, 10], {}),                                     # 21
    ("C3K2", [-1], dict(c_out=1024, c3k=True, e=0.5)),            # 22 P5 out
    ("DetectHead", [16, 19, 22], {}),                             # 23
]
_BASE_UNITS = 2

STRIDES = (8, 16, 32)


@dataclass(frozen=True)
class LayerSpec:
    """One assembled layer: kind and resolved input indices."""

    index: int
    kind: str
    froms: tuple[int, ...]


def scale_channels(c: int, variant: VariantSpec) -> int:
    """Width scaling: cap, multiply, round to the nearest multiple of 8 (min 8)."""
    scaled = min(c, variant.max_channels) * variant.width_multiple
    return max(8, int(math.floor(scaled / 8 + 0.5)) * 8)


def scale_units(n: int, variant: VariantSpec) -> int:
    """Depth scaling: ceil-round, never below 1."""
    return max(1, math.ceil(n * variant.depth_multiple))


class _Branch(_Composite):
    """One scale's box or class branch: leaves run in order, named 0, 1, ..."""

    def __init__(self, *leaves: ConvBlock) -> None:
        self.leaves = leaves

    def children(self) -> list[tuple[str, object]]:
        return [(str(j), leaf) for j, leaf in enumerate(self.leaves)]

    def forward(self, x: Tensor) -> Tensor:
        for leaf in self.leaves:
            x = leaf(x)
        return x


class DetectHead(_Composite):
    """Anchor-free decoupled head over three scales. Per scale, a box branch
    (4*reg_max distance-distribution logits) and a class branch (num_classes
    logits) run side by side; one tensor per scale in, their concat out."""

    def __init__(self, chs: Sequence[int], num_classes: int, reg_max: int) -> None:
        if len(chs) != 3:
            raise ValueError(f"head expects three input scales, got {len(chs)}")
        self.num_classes = num_classes
        self.reg_max = reg_max
        box_c = max(16, chs[0] // 4, 4 * reg_max)
        cls_c = max(chs[0], min(num_classes, 100))
        self.branches = [
            (
                _Branch(
                    ConvBlock(c, box_c, k=3),
                    ConvBlock(box_c, box_c, k=3),
                    ConvBlock(box_c, 4 * reg_max, bias=True),
                ),
                _Branch(
                    ConvBlock(c, c, k=3, groups=c),
                    ConvBlock(c, cls_c, k=1),
                    ConvBlock(cls_c, cls_c, k=3, groups=cls_c),
                    ConvBlock(cls_c, cls_c, k=1),
                    ConvBlock(cls_c, num_classes, bias=True),
                ),
            )
            for c in chs
        ]

    @property
    def out_channels(self) -> int:
        return 4 * self.reg_max + self.num_classes

    def children(self) -> list[tuple[str, object]]:
        return [(f"{kind}{i}", b) for i, pair in enumerate(self.branches)
                for kind, b in zip(("box", "cls"), pair)]

    def forward(self, xs: Sequence[Tensor]) -> tuple[Tensor, Tensor, Tensor]:
        return tuple(concat_channels([box(x), cls(x)]) for (box, cls), x in zip(self.branches, xs))

    def flops(self, shapes: Sequence[tuple[int, int]]) -> float:
        return sum(b.flops(h, w) for pair, (h, w) in zip(self.branches, shapes) for b in pair)


def _learnable_params(block: object) -> int:
    # Conv weights and biases plus bn gamma/beta; running statistics excluded.
    return sum(
        arr.size
        for _, leaf in iter_leaf_blocks(block)
        for suffix, arr in leaf.entries()
        if suffix not in ("mean", "var")
    )


def _run_layer(spec: LayerSpec, block, inputs: list[Tensor]):
    # The one dispatch on layer kind over tensors. The kernels are looked up
    # as module globals at call time, so rebinding them (as tracing does)
    # reaches every call.
    if spec.kind == "Upsample":
        return upsample_nearest2x(inputs[0])
    if spec.kind == "Concat":
        return concat_channels(inputs)
    if spec.kind == "DetectHead":
        return block(inputs)
    return block(inputs[0])


class ModelGraph:
    """The detector's layer graph for one scaling variant, built from
    `_BASE_LAYERS`. Immutable topology; forward is pure.

    One walker, `_walk`, visits the layers in order and resolves each layer's
    inputs; `forward` runs it over tensors, and `count_flops` and
    `layer_summary` run it over (channels, h, w) shape tuples. The conv leaves
    are walked once, at build: each gets its weight-file path as its `name`.
    """

    def __init__(self, variant: str, num_classes: int = 80, reg_max: int = 16) -> None:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {sorted(VARIANTS)}")
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if reg_max < 2:
            raise ValueError("reg_max must be >= 2")
        self.variant = scaling = VARIANTS[variant]
        self.num_classes = num_classes
        self.reg_max = reg_max
        self.strides = STRIDES
        self.layers: list[LayerSpec] = []
        self.blocks: list[object | None] = []
        self.out_channels: list[int] = []
        self.save: set[int] = set()  # outputs a later non-adjacent layer reads
        self._leaves: list[tuple[str, ConvBlock]] = []  # (weight-file path, leaf)
        units = scale_units(_BASE_UNITS, scaling)
        for index, (kind, froms, args) in enumerate(_BASE_LAYERS):
            froms = tuple(index - 1 if f == -1 else f for f in froms)
            self.save.update(f for f in froms if f != index - 1)
            c_in = 3 if index == 0 else self.out_channels[froms[0]]
            c_out = scale_channels(args["c_out"], scaling) if "c_out" in args else None
            block: object | None = None
            if kind == "ConvBlock":
                block = ConvBlock(c_in, c_out, k=3, stride=2)
            elif kind == "C3K2":
                c3k = args["c3k"] or variant in _DEEP_C3K_VARIANTS
                block = C3K2(c_in, c_out, n=units, c3k=c3k, e=args["e"])
            elif kind == "SPPF":
                block = SPPF(c_in)
            elif kind == "C2PSA":
                block = C2PSA(c_in, n=units)
            elif kind == "DetectHead":
                block = DetectHead([self.out_channels[f] for f in froms], num_classes, reg_max)
            self.layers.append(LayerSpec(index, kind, froms))
            self.blocks.append(block)
            if block is not None:
                self._leaves += iter_leaf_blocks(block, f"layer{index}")
            if kind == "Concat":
                self.out_channels.append(sum(self.out_channels[f] for f in froms))
            else:  # Upsample keeps its input's width
                self.out_channels.append(c_in if block is None else block.out_channels)
        for path, leaf in self._leaves:
            leaf.name = path

    # -- layer walk ------------------------------------------------------

    def _walk(self, first, step):
        """Run `step(spec, block, inputs)` over the layers in order, starting
        from `first` as the input of layer 0; returns the last layer's output.

        Only outputs that a later non-adjacent layer reads (`self.save`) are
        kept, so a forward holds no more feature maps than it needs. It is a
        plain loop rather than a generator: a caller holding the previous
        yielded item would keep one more feature map alive.
        """
        saved = {}
        x = first
        for spec, block in zip(self.layers, self.blocks):
            x = step(spec, block, [x if f == spec.index - 1 else saved[f] for f in spec.froms])
            if spec.index in self.save:
                saved[spec.index] = x
        return x

    def forward(self, image: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Run the network; returns the three raw head tensors (P3, P4, P5).

        A leaf whose parameters fold to a non-finite weight or bias raises
        its ValueError, which starts with its weight-file prefix
        (`ConvBlock.name`, e.g. `layer23.box0.2`).
        """
        if image.c != 3:
            raise ValueError(f"expected 3 input channels, got {image.c}")
        if image.h % 32 or image.w % 32:
            raise ValueError(
                f"input size {image.h}x{image.w} must be divisible by 32"
            )
        return self._walk(image, _run_layer)

    # -- parameter traversal ----------------------------------------------

    def named_leaf_blocks(self) -> list[tuple[str, ConvBlock]]:
        """Every conv leaf as (weight-file path, leaf), in canonical order."""
        return self._leaves

    def _entries(self) -> Iterator[tuple[str, ConvBlock, str, np.ndarray]]:
        """Every parameter as (entry name, leaf, suffix, current array), in
        canonical order; the one place entry names are built."""
        for path, leaf in self.named_leaf_blocks():
            for suffix, arr in leaf.entries():
                yield f"{path}.{suffix}", leaf, suffix, arr

    def state_entries(self) -> list[tuple[str, np.ndarray]]:
        """All parameter arrays (including running stats) in canonical order."""
        return [(name, arr) for name, _, _, arr in self._entries()]

    def count_params(self) -> int:
        """Learnable parameter count: conv weights and biases plus bn gamma/beta."""
        return sum(_learnable_params(b) for b in self.blocks if b is not None)

    # -- accounting --------------------------------------------------------

    def _shape_walk(self, input_size: int) -> list[tuple[tuple[int, int, int], float]]:
        """Per layer: output (channels, h, w) at a square input size, and FLOPs
        (0.0 for Upsample and Concat, which compute nothing). Like `forward`,
        it rejects a size the three strides cannot divide."""
        if input_size % 32:
            raise ValueError(f"input size {input_size} must be divisible by 32")
        rows = []

        def step(spec, block, inputs):
            _, h, w = inputs[0]
            if spec.kind == "DetectHead":
                flops = block.flops([(ih, iw) for _, ih, iw in inputs])
            else:
                flops = 0.0 if block is None else block.flops(h, w)
            if spec.kind == "Upsample":
                h, w = 2 * h, 2 * w
            elif spec.kind == "ConvBlock":
                h, w = block.out_hw(h, w)
            shape = (self.out_channels[spec.index], h, w)
            rows.append((shape, flops))
            return shape

        self._walk((3, input_size, input_size), step)
        return rows

    def count_flops(self, input_size: int) -> float:
        """Forward cost in GFLOPs at batch 1 (multiply-add counted as 2)."""
        total = 0.0
        for _, flops in self._shape_walk(input_size):
            total += flops
        return total / 1e9

    def layer_summary(self, input_size: int) -> list[dict]:
        """Per-layer rows for reporting: kind, froms, output shape, params."""
        rows = []
        walk = self._shape_walk(input_size)
        for spec, block, ((c, h, w), _) in zip(self.layers, self.blocks, walk):
            rows.append(
                {
                    "index": spec.index,
                    "kind": spec.kind,
                    "from": list(spec.froms),
                    "output_shape": [1, c, h, w],
                    "params": 0 if block is None else _learnable_params(block),
                }
            )
        return rows

    # -- parameter population ----------------------------------------------

    def init_random(self, seed: int) -> "ModelGraph":
        """Deterministic seeded init: uniform(+-sqrt(6/fan_in)) conv weights,
        zero biases, identity batch-norm, loaded through `load_state`."""
        rng = np.random.default_rng(seed)
        state = []
        for name, _, suffix, arr in self._entries():
            if suffix == "weight":
                bound = math.sqrt(6.0 / math.prod(arr.shape[1:]))  # fan_in = (c_in/groups)*k*k
                value = rng.uniform(-bound, bound, arr.shape).astype(np.float32).tobytes()
                value = np.frombuffer(value, np.float32).reshape(arr.shape)  # kept uncopied
            else:
                value = _placeholder(arr.shape, 1.0 if suffix in ("gamma", "var") else 0.0)
            state.append((name, value))
        return self.load_state(state)

    def load_state(self, entries: Sequence[tuple[str, np.ndarray]]) -> "ModelGraph":
        """Populate every parameter from (name, array) pairs; strict matching.

        Missing or extra entries, dimension mismatches and a negative or
        non-finite running variance are rejected with the offending entry named.
        Every entry is checked before any is set, so a rejected state leaves
        the graph as it was.
        """
        provided = {}
        for name, arr in entries:
            if name in provided:
                raise ValueError(f"duplicate weight entry {name!r}")
            provided[name] = arr
        expected = list(self._entries())
        expected_names = {name for name, *_ in expected}
        missing = sorted(expected_names - provided.keys())
        if missing:
            raise ValueError(f"weights file is missing entry {missing[0]!r}")
        extra = sorted(provided.keys() - expected_names)
        if extra:
            raise ValueError(f"weights file has unknown entry {extra[0]!r}")
        checked = [
            (leaf, suffix, leaf._check_entry(suffix, provided[name]))
            for name, leaf, suffix, _ in expected
        ]
        for leaf, suffix, value in checked:
            leaf._store(suffix, value)
        return self


def build_graph(variant: str, num_classes: int = 80, reg_max: int = 16) -> ModelGraph:
    """Assemble the detector for a scaling variant, one of n/s/m/l/x.

    The graph comes out zero-initialized: zero weights and biases and
    identity batch-norm, as read-only placeholders that allocate no buffer
    (`tensor._placeholder`). Call init_random or load_state before
    meaningful use; both replace the placeholders, never write into them.
    """
    return ModelGraph(variant, num_classes, reg_max)

"""In-memory spans around the engine's public functions, for the traced run.

`install` rebinds public functions and block methods of the engine modules
to wrappers that record a span each (name, start, end, parent span,
operation id, info) and returns a function that restores the originals.
Nothing is written while the run measures; the runner aggregates the spans at
the end. `walk_forward` runs a forward pass layer by layer over the graph's
public `layers`/`blocks`, with one span per layer.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

_MISSING = object()

# Span record fields.
NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (op, name) -> calls, for count-only wrappers
        self.op = -1  # operation id stamped on new spans; -1 is set-up
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def wrap(self, name: str, fn, describe=None):
        """`fn` with a span per call; `describe(*args)` fills the span's info."""

        def traced(*args, **kwargs):
            rec = self._open(name)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                self._stack.pop()
                if describe is not None:
                    rec[INFO] = describe(*args, **kwargs)

        return traced

    def counter(self, name: str, fn):
        """`fn` with a call count only, for functions called too often to span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.op, name)] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        rec[START] = perf_counter()
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._stack.pop()


def conv_info(x, spec):
    """(kind, FLOPs, bytes) of one conv2d call: multiply-add counted as 2, and
    input, weight and output float32 elements each touched once."""
    k, g = spec.kernel, spec.groups
    if g == 1:
        kind = "pointwise" if k == 1 else "dense"
    elif g == x.c == spec.out_channels:
        kind = "depthwise"
    else:
        kind = "grouped"
    oh = (x.h + 2 * spec.padding - k) // spec.stride + 1
    ow = (x.w + 2 * spec.padding - k) // spec.stride + 1
    out_elems = x.n * spec.out_channels * oh * ow
    flops = 2.0 * spec.weight.size * oh * ow * x.n
    if spec.bias is not None:
        flops += out_elems
    nbytes = 4 * (x.data.size + spec.weight.size + out_elems)
    return kind, flops, nbytes


def install(tracer: Tracer):
    """Rebind the engine's public entry points to traced wrappers; returns `restore`."""
    from y11 import blocks, graph, io_formats, metrics, postprocess

    saved = []

    def rebind(owner, attr, new):
        saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, new)

    def functions(module, prefix, names, describe=None):
        for attr in names:
            rebind(module, attr, tracer.wrap(f"{prefix}.{attr}", getattr(module, attr), describe))

    rebind(blocks, "conv2d", tracer.wrap("tensor.conv2d", blocks.conv2d, conv_info))
    functions(blocks, "tensor", ("silu", "maxpool2d", "concat_channels", "split_channels",
                                 "softmax_lastaxis"))
    functions(graph, "tensor", ("upsample_nearest2x", "concat_channels"))
    for cls in (blocks.ConvBlock, blocks.C3K2, blocks.SPPF, blocks.C2PSA):
        traced = tracer.wrap(f"blocks.{cls.__name__}", cls.forward)
        rebind(cls, "forward", traced)
        rebind(cls, "__call__", traced)
    rebind(graph.ModelGraph, "load_state",
           tracer.wrap("graph.load_state", graph.ModelGraph.load_state))
    functions(postprocess, "postprocess", ("letterbox", "decode_head", "nms", "unletterbox"))
    functions(io_formats, "io_formats", ("read_ppm", "read_weights", "write_detections",
                                         "read_detections", "read_annotations"))
    functions(metrics, "metrics", ("evaluate", "match_detections", "average_precision"))
    rebind(metrics, "iou", tracer.counter("metrics.iou", metrics.iou))

    def restore():
        for owner, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return restore


def walk_forward(model, image, tracer: Tracer):
    """The forward pass, one `graph.layer<i>` span per layer (info = FLOPs or None)."""
    from y11 import graph

    cache = {}
    x = image
    for spec, block in zip(model.layers, model.blocks):
        inputs = [x if f == spec.index - 1 else cache[f] for f in spec.froms]
        with tracer.span(f"graph.layer{spec.index}") as rec:
            if spec.kind == "Upsample":
                out = graph.upsample_nearest2x(inputs[0])
            elif spec.kind == "Concat":
                out = graph.concat_channels(inputs)
            elif spec.kind == "DetectHead":
                out = block(inputs)
            else:
                out = block(inputs[0])
        if spec.kind == "DetectHead":
            rec[INFO] = block.flops([(t.h, t.w) for t in inputs])
        elif block is not None:
            rec[INFO] = block.flops(inputs[0].h, inputs[0].w)
        if spec.index in model.save:
            cache[spec.index] = out
        x = out
    return x


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return [
        (rec[END] - rec[START]) - covered(children.get(i, ()), rec[START], rec[END])
        for i, rec in enumerate(spans)
    ]

"""Kernels never mutate their inputs. Each kernel runs on drawn inputs, and
everything it was given is compared before and after the call: every array's
bytes, dtype, shape, writeable flag and identity, and every record's fields.
Arrays the API takes directly (`ConvSpec` and `BatchNormParams` parameters,
`Candidates` columns, the `sigmoid` and `softmax_lastaxis` inputs) are
writable, so a write into them would go through rather than raise."""
import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from y11.postprocess import Candidates, LetterboxMeta, decode_head, letterbox, nms, unletterbox
from y11.tensor import (
    BatchNormParams,
    ConvSpec,
    Tensor,
    concat_channels,
    conv2d,
    fold_batchnorm,
    maxpool2d,
    sigmoid,
    silu,
    softmax_lastaxis,
    split_channels,
    upsample_nearest2x,
)


def snapshot(obj):
    if isinstance(obj, np.ndarray):
        return ("array", id(obj), obj.tobytes(), obj.dtype.str, obj.shape, obj.flags.writeable)
    if isinstance(obj, Tensor):
        return ("Tensor", snapshot(obj.data))
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [snapshot(item) for item in obj])
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,
                [(f.name, snapshot(getattr(obj, f.name))) for f in dataclasses.fields(obj)])
    return repr(obj)


def call_unchanged(fn, *args):
    """`fn(*args)`, asserting that no argument changed."""
    before = snapshot(args)
    result = fn(*args)
    assert snapshot(args) == before, f"{fn.__name__} changed its input"
    return result


def normal(rng, shape):
    return rng.standard_normal(shape).astype(np.float32)


def tensor(rng, shape):
    return Tensor(normal(rng, shape))


seeds = st.integers(0, 2**32 - 1)
sides = st.integers(1, 9)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["pointwise", "depthwise", "dense", "grouped"]),
       stride=st.sampled_from([1, 2]), with_bias=st.booleans(), n=st.integers(1, 2),
       h=sides, w=sides, a=st.integers(1, 3), b=st.integers(1, 3), seed=seeds)
def test_conv2d(kind, stride, with_bias, n, h, w, a, b, seed):
    rng = np.random.default_rng(seed)
    k, groups, c_in, c_out = {
        "pointwise": (1, 1, a, b),
        "depthwise": (3, a + 1, a + 1, a + 1),
        "dense": (3, 1, a, b),
        "grouped": (3, 2, 2 * a, 2 * b),
    }[kind]
    weight = normal(rng, (c_out, c_in // groups, k, k))
    bias = normal(rng, (c_out,)) if with_bias else None
    spec = ConvSpec(c_in, c_out, k, stride=stride, groups=groups, weight=weight, bias=bias)
    assert spec.weight is weight and weight.flags.writeable
    out = call_unchanged(conv2d, tensor(rng, (n, c_in, h, w)), spec)
    assert out.shape[:2] == (n, c_out)


@settings(max_examples=30, deadline=None)
@given(c_in=st.integers(1, 4), c_out=st.integers(1, 4), k=st.sampled_from([1, 3]),
       with_bias=st.booleans(), seed=seeds)
def test_fold_batchnorm(c_in, c_out, k, with_bias, seed):
    rng = np.random.default_rng(seed)
    bias = normal(rng, (c_out,)) if with_bias else None
    spec = ConvSpec(c_in, c_out, k, weight=normal(rng, (c_out, c_in, k, k)), bias=bias)
    bn = BatchNormParams(gamma=normal(rng, (c_out,)), beta=normal(rng, (c_out,)),
                         mean=normal(rng, (c_out,)), var=np.abs(normal(rng, (c_out,))))
    assert bn.var.flags.writeable
    folded = call_unchanged(fold_batchnorm, spec, bn)
    # float32 in, float32 out with no cast of its own: byte-equal to the plain
    # products of the float32 scale and shift.
    scale, shift = bn.scale_shift()
    bias = shift if bias is None else spec.bias * scale + shift
    assert folded.weight.dtype == folded.bias.dtype == np.float32
    assert folded.weight.tobytes() == (spec.weight * scale[:, None, None, None]).tobytes()
    assert folded.bias.tobytes() == bias.tobytes()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2), c=st.integers(1, 6), h=st.integers(2, 9), w=st.integers(2, 9),
       seed=seeds)
def test_elementwise_and_layout_kernels(n, c, h, w, seed):
    rng = np.random.default_rng(seed)
    x = tensor(rng, (n, c, h, w))
    call_unchanged(silu, x)
    call_unchanged(sigmoid, normal(rng, (n, c, h, w)) * 30)
    call_unchanged(upsample_nearest2x, x)
    call_unchanged(maxpool2d, x, 3, 1, 1)
    call_unchanged(maxpool2d, x, 2, 2, 0)
    call_unchanged(concat_channels, [x])
    call_unchanged(concat_channels, [x, tensor(rng, (n, 2, h, w)), x])
    cut = int(rng.integers(0, c + 1))
    call_unchanged(split_channels, x, [cut, c - cut])


@settings(max_examples=40, deadline=None)
@given(length=st.one_of(st.integers(1, 32), st.integers(33, 80)),
       rows=st.integers(1, 5), dtype=st.sampled_from([np.float32, np.float64]), seed=seeds)
def test_softmax_lastaxis(length, rows, dtype, seed):
    a = (np.random.default_rng(seed).standard_normal((2, rows, length)) * 20).astype(dtype)
    call_unchanged(softmax_lastaxis, a)
    call_unchanged(softmax_lastaxis, a.transpose(1, 0, 2))


@settings(max_examples=30, deadline=None)
@given(h=st.integers(1, 90), w=st.integers(1, 90), target=st.sampled_from([32, 64]),
       seed=seeds)
def test_letterbox(h, w, target, seed):
    rng = np.random.default_rng(seed)
    call_unchanged(letterbox, Tensor(rng.random((1, 3, h, w), dtype=np.float32)), target)


@settings(max_examples=30, deadline=None)
@given(reg_max=st.sampled_from([2, 4, 16]), num_classes=st.integers(1, 5),
       conf=st.sampled_from([0.0, 0.3, 0.9]), seed=seeds)
def test_decode_head(reg_max, num_classes, conf, seed):
    rng = np.random.default_rng(seed)
    channels = 4 * reg_max + num_classes
    raw = [tensor(rng, (1, channels, side, side)) for side in (4, 2, 1)]
    call_unchanged(decode_head, raw, (8, 16, 32), reg_max, num_classes, conf)


def candidates(rng, count):
    """Writable columns: grid boxes and a few distinct scores, so that boxes
    overlap and scores tie."""
    xy = rng.integers(0, 6, (count, 2)) * 5.0
    wh = rng.integers(1, 4, (count, 2)) * 5.0
    return Candidates(np.concatenate([xy, xy + wh], axis=1),
                      rng.choice([0.1, 0.25, 0.5, 0.9], count),
                      rng.integers(0, 3, count))


@settings(max_examples=40, deadline=None)
@given(count=st.integers(0, 40), iou=st.sampled_from([0.0, 0.45, 1.0]), seed=seeds)
def test_nms(count, iou, seed):
    cands = candidates(np.random.default_rng(seed), count)
    assert all(col.flags.writeable for col in (cands.boxes, cands.scores, cands.class_ids))
    kept = call_unchanged(nms, cands, iou)
    assert call_unchanged(nms, list(cands), iou) == kept


@settings(max_examples=30, deadline=None)
@given(count=st.integers(0, 20), scale=st.sampled_from([0.5, 1.0, 2.5]), seed=seeds)
def test_unletterbox(count, scale, seed):
    rng = np.random.default_rng(seed)
    cands = candidates(rng, count)
    meta = LetterboxMeta(scale, int(rng.integers(0, 8)), int(rng.integers(0, 8)), 20, 12)
    got = call_unchanged(unletterbox, cands, meta)
    assert call_unchanged(unletterbox, list(cands), meta) == got

"""Image-to-detections plumbing around the network: letterbox preprocessing,
distribution-based head decoding, class-aware greedy NMS, and mapping boxes
back to original-image pixels.

Candidates travel as columns: `decode_head` returns `Candidates` (boxes,
scores and class ids as arrays) and `nms` works on those arrays, so
`Detection` records are built only for the boxes NMS keeps. `nms` also takes
any iterable of records, and iterating `Candidates` yields records.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .tensor import Tensor, sigmoid, softmax_lastaxis

__all__ = [
    "LetterboxMeta",
    "Detection",
    "Candidates",
    "letterbox",
    "decode_head",
    "nms",
    "unletterbox",
]

PAD_VALUE = 114.0 / 255.0


@dataclass(frozen=True, slots=True)
class LetterboxMeta:
    """Forward mapping original -> letterboxed: x' = x * scale + pad_left."""

    scale: float
    pad_left: int
    pad_top: int
    orig_w: int
    orig_h: int


@dataclass(frozen=True, slots=True)
class Detection:
    """One detected object; box is (x1, y1, x2, y2) in pixels."""

    class_id: int
    score: float
    box: tuple[float, float, float, float]


@dataclass(frozen=True, slots=True, eq=False)
class Candidates:
    """Detections as three columns: `boxes` (N, 4) float64 xyxy in pixels,
    `scores` (N,) float64 and `class_ids` (N,) int64. Iterating yields the
    `Detection` records, with Python scalars, in row order."""

    boxes: np.ndarray
    scores: np.ndarray
    class_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self) -> Iterator[Detection]:
        boxes = map(tuple, self.boxes.tolist())
        return map(Detection, self.class_ids.tolist(), self.scores.tolist(), boxes)

    @classmethod
    def of(cls, dets: "Candidates | Iterable[Detection]") -> "Candidates":
        """`dets` itself if it is `Candidates`, else its records as columns."""
        if isinstance(dets, Candidates):
            return dets
        dets = list(dets)
        return cls(
            np.array([d.box for d in dets], dtype=np.float64).reshape(-1, 4),
            np.array([d.score for d in dets], dtype=np.float64),
            np.array([d.class_id for d in dets], dtype=np.int64),
        )


def letterbox(image: Tensor, target: int) -> tuple[Tensor, LetterboxMeta]:
    """Aspect-preserving nearest-neighbor resize onto a target x target canvas.

    The resized image is centered; borders take the conventional gray value
    114/255. Returns the canvas and the metadata needed to invert the mapping.
    """
    if image.n != 1 or image.c != 3:
        raise ValueError(f"letterbox expects a 1x3xHxW image, got {image.shape}")
    h, w = image.h, image.w
    scale = min(target / w, target / h)
    new_w = max(1, round(w * scale))
    new_h = max(1, round(h * scale))

    src_x = np.minimum((np.arange(new_w) + 0.5) * (w / new_w), w - 1).astype(np.int64)
    src_y = np.minimum((np.arange(new_h) + 0.5) * (h / new_h), h - 1).astype(np.int64)
    # two 1-D gathers, rows then columns, cost less than one 2-D fancy index
    resized = np.take(np.take(image.data, src_y, axis=2), src_x, axis=3)

    pad_left = (target - new_w) // 2
    pad_top = (target - new_h) // 2
    canvas = np.full((1, 3, target, target), PAD_VALUE, dtype=np.float32)
    canvas[:, :, pad_top : pad_top + new_h, pad_left : pad_left + new_w] = resized
    return Tensor._wrap(canvas), LetterboxMeta(scale, pad_left, pad_top, w, h)


def decode_head(
    raw: Sequence[Tensor],
    strides: Sequence[int],
    reg_max: int,
    num_classes: int,
    conf_thresh: float,
) -> Candidates:
    """Turn raw head tensors into box candidates in letterboxed pixel space.

    Per cell: class scores are per-class sigmoids; a cell survives when its
    best score exceeds conf_thresh. Each box side is the softmax-expected bin
    index of its distance distribution times the stride, measured outward from
    the cell center (the distribution focal loss decode). The kept cells of
    all heads are decoded together and come out in head order, then cell
    order. A non-finite head value, which only bad weights or input can
    produce, raises ValueError naming the head and channel.
    """
    if len(raw) != len(strides):
        raise ValueError(f"got {len(raw)} head tensors for {len(strides)} strides")
    expect_c = 4 * reg_max + num_classes
    for tensor in raw:
        if tensor.c != expect_c:
            raise ValueError(
                f"head tensor has {tensor.c} channels, expected 4*{reg_max}+{num_classes}={expect_c}"
            )
        if tensor.n != 1:
            raise ValueError("decode_head handles batch size 1")
    heads = [t.data.reshape(expect_c, t.h * t.w) for t in raw]
    for i, (head, stride) in enumerate(zip(heads, strides)):
        if not np.isfinite(head).all():
            channel = np.flatnonzero(~np.isfinite(head).all(axis=1))[0]
            raise ValueError(
                f"head {i} (stride {stride}) has a non-finite value in channel {channel}"
            )
    # sigmoid is monotone, so the best logit gives the best score
    best = sigmoid(np.concatenate([head[4 * reg_max :].max(axis=0) for head in heads]))
    idx = np.flatnonzero(best > conf_thresh)  # over all heads' cells, in order
    starts = np.cumsum([0] + [head.shape[1] for head in heads])
    which = np.searchsorted(starts, idx, side="right") - 1  # head of each kept cell
    cell = idx - starts[which]
    # kept cells per head, as cut points into the kept-cell axis
    cuts = np.searchsorted(which, np.arange(1, len(heads)))
    # one row of head values per kept cell; a distribution's reg_max bins
    # stay adjacent, so softmax and the expectation run along contiguous rows
    rows = np.concatenate([head.T[part] for head, part in zip(heads, np.split(cell, cuts))])
    class_ids = rows[:, 4 * reg_max :].argmax(axis=1)

    width = np.array([t.w for t in raw])[which]
    stride = np.array(strides)[which]
    dist_logits = rows[:, : 4 * reg_max].reshape(idx.size, 4, reg_max)
    probs = softmax_lastaxis(dist_logits.transpose(1, 0, 2))
    # The expectation is one matrix-vector product per head: BLAS rounds the
    # last few rows of a product its own way, so one product over all heads
    # would move some boxes by an ulp.
    bins = np.arange(reg_max, dtype=np.float32)
    expect = np.concatenate([p @ bins for p in np.split(probs, cuts, axis=1)], axis=1)
    dists = expect * stride.astype(np.float32)  # (4, M): left, top, right, bottom
    cx = (cell % width + 0.5) * stride
    cy = (cell // width + 0.5) * stride
    boxes = np.stack([cx - dists[0], cy - dists[1], cx + dists[2], cy + dists[3]], axis=1)
    return Candidates(boxes, best[idx].astype(np.float64), class_ids)


def _iou_one_many(cols: np.ndarray, i: int, rest: np.ndarray) -> np.ndarray:
    """IoU of box `i` with each box in `rest`, from the (5, M) columns
    x1, y1, x2, y2, area of one class; x and y go through each step as one
    two-row array."""
    box, others = cols[:, i], cols.take(rest, axis=1)
    lo = np.maximum(box[:2, None], others[:2])
    hi = np.minimum(box[2:4, None], others[2:4])
    side = np.maximum(0.0, hi - lo)
    inter = side[0] * side[1]
    union = box[4] + others[4] - inter
    return np.where(union > 0, inter / np.maximum(union, 1e-30), 0.0)


def nms(candidates: Candidates | Iterable[Detection], iou_thresh: float) -> list[Detection]:
    """Greedy class-aware non-maximum suppression.

    Candidates are visited by descending score (ties broken by class id, then
    box coordinates x1, y1, x2, y2); one is kept iff its IoU with every
    already-kept box of the same class is <= iou_thresh. The kept boxes come
    back as `Detection` records in that order. Takes `Candidates` or any
    iterable of `Detection`.
    """
    cands = Candidates.of(candidates)
    boxes = cands.boxes
    order = np.lexsort((boxes[:, 3], boxes[:, 2], boxes[:, 1], boxes[:, 0],
                        cands.class_ids, -cands.scores))
    # ranks grouped by class, each group in rank order
    ranked_ids = cands.class_ids[order]
    ranks = np.argsort(ranked_ids, kind="stable")
    groups = np.split(ranks, np.flatnonzero(np.diff(ranked_ids[ranks])) + 1)
    kept: list[int] = []
    for group in groups:
        x1, y1, x2, y2 = boxes[order[group]].T
        cols = np.stack([x1, y1, x2, y2, (x2 - x1) * (y2 - y1)])
        live = np.arange(group.size)  # shrinks as boxes are kept or suppressed
        while live.size:
            kept.append(group[live[0]])
            rest = live[1:]
            live = rest[~(_iou_one_many(cols, live[0], rest) > iou_thresh)]
    keep = order[np.sort(np.array(kept, dtype=np.int64))]
    return list(Candidates(boxes[keep], cands.scores[keep], cands.class_ids[keep]))


def unletterbox(dets: Sequence[Detection], meta: LetterboxMeta) -> list[Detection]:
    """Map boxes from letterboxed space back to original-image pixels,
    clipping to the image bounds. Coordinates come back as floats."""
    pad = np.array([meta.pad_left, meta.pad_top] * 2, dtype=np.float64)
    limit = np.array([meta.orig_w, meta.orig_h] * 2, dtype=np.float64)
    boxes = (np.array([d.box for d in dets], dtype=np.float64).reshape(-1, 4) - pad) / meta.scale
    # min(max(v, 0), limit) as Python's min/max do it: -0.0 and NaN pass unchanged
    boxes = np.where(boxes < 0.0, 0.0, boxes)
    boxes = np.where(boxes > limit, limit, boxes)
    return [Detection(d.class_id, d.score, tuple(box)) for d, box in zip(dets, boxes.tolist())]

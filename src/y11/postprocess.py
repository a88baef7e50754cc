"""Image-to-detections plumbing around the network: letterbox preprocessing,
distribution-based head decoding, class-aware greedy NMS, and mapping boxes
back to original-image pixels.

Candidates travel as columns: `decode_head` decodes head by head into one
`Candidates` (boxes, scores, class ids) and `nms` works on those arrays, so
`Detection` records are built only for the boxes NMS keeps. `nms` also takes
any iterable of records, and iterating `Candidates` yields records.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .tensor import Tensor, sigmoid

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
    the cell center (the distribution focal loss decode). Each head is
    decoded on its own; the candidates come out in head order, then cell
    order. A non-finite head value, which only bad weights or input can
    produce, raises ValueError naming the head and channel.
    """
    if len(raw) != len(strides):
        raise ValueError(f"got {len(raw)} head tensors for {len(strides)} strides")
    expect_c = 4 * reg_max + num_classes
    bins = np.arange(reg_max, dtype=np.float32)
    columns = []  # (boxes, scores, class ids) per head
    for i, (tensor, stride) in enumerate(zip(raw, strides)):
        if tensor.c != expect_c:
            raise ValueError(
                f"head tensor has {tensor.c} channels, expected 4*{reg_max}+{num_classes}={expect_c}"
            )
        if tensor.n != 1:
            raise ValueError("decode_head handles batch size 1")
        head = tensor.data.reshape(expect_c, tensor.h * tensor.w)
        if not np.isfinite(head).all():
            channel = np.flatnonzero(~np.isfinite(head).all(axis=1))[0]
            raise ValueError(
                f"head {i} (stride {stride}) has a non-finite value in channel {channel}"
            )
        # sigmoid is monotone, so the best logit gives the best score
        best = sigmoid(head[4 * reg_max :].max(axis=0))
        cell = np.flatnonzero(best > conf_thresh)
        # one row of head values per kept cell; a distribution's reg_max bins
        # stay adjacent, so softmax and the expectation run along contiguous rows
        rows = head.T[cell]
        logits = rows[:, : 4 * reg_max].reshape(cell.size, 4, reg_max).transpose(1, 0, 2)
        # numpy's max reduction costs more per row than a reg_max-bin row is
        # long; a running maximum over the bins gives the same value
        top = logits[..., :1].copy(order="K")
        for b in range(1, reg_max):
            np.maximum(top, logits[..., b : b + 1], out=top)
        e = np.exp(logits - top)
        probs = e / e.sum(axis=-1, keepdims=True)
        # a per-row sum rounds the same however many cells pass conf; a BLAS product does not
        dists = (probs * bins).sum(-1) * np.float32(stride)  # (4, M): left, top, right, bottom
        cx = (cell % tensor.w + 0.5) * stride
        cy = (cell // tensor.w + 0.5) * stride
        boxes = np.stack([cx - dists[0], cy - dists[1], cx + dists[2], cy + dists[3]], axis=1)
        class_ids = rows[:, 4 * reg_max :].argmax(axis=1)
        columns.append((boxes, best[cell].astype(np.float64), class_ids))
    return Candidates(*(np.concatenate(column) for column in zip(*columns)))


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


def _visit_order(cands: Candidates) -> np.ndarray:
    """The row order of `np.lexsort` over the key (-score, class id, x1, y1,
    x2, y2), ties kept in row order. Scores rarely tie, so a stable sort on
    the score alone does most of the work, and the rest of the key sorts
    only the rows inside runs of equal scores (NaN counts as equal to NaN,
    as in lexsort)."""
    neg = -cands.scores
    order = np.argsort(neg, kind="stable")
    ranked = neg[order]
    tie = (ranked[1:] == ranked[:-1]) | (np.isnan(ranked[1:]) & np.isnan(ranked[:-1]))
    if tie.any():
        # positions in a run of equal scores, and each position's run number
        edge = np.concatenate(([False], tie, [False]))
        tied = np.flatnonzero(edge[:-1] | edge[1:])
        run = np.cumsum(np.concatenate(([True], ~tie)))[tied]
        rows = order[tied]
        b = cands.boxes[rows]
        order[tied] = rows[np.lexsort((b[:, 3], b[:, 2], b[:, 1], b[:, 0],
                                       cands.class_ids[rows], run))]
    return order


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
    order = _visit_order(cands)
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
    cands = Candidates.of(dets)
    pad = np.array([meta.pad_left, meta.pad_top] * 2, dtype=np.float64)
    limit = np.array([meta.orig_w, meta.orig_h] * 2, dtype=np.float64)
    boxes = (cands.boxes - pad) / meta.scale
    # min(max(v, 0), limit) as Python's min/max do it: -0.0 and NaN pass unchanged
    boxes = np.where(boxes < 0.0, 0.0, boxes)
    boxes = np.where(boxes > limit, limit, boxes)
    return list(Candidates(boxes, cands.scores, cands.class_ids))

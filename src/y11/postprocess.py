"""Image-to-detections plumbing around the network: letterbox preprocessing,
distribution-based head decoding, class-aware greedy NMS, and mapping boxes
back to original-image pixels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import Tensor, softmax_lastaxis
from .tensor import _sigmoid_array as _sigmoid

__all__ = [
    "LetterboxMeta",
    "Detection",
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
    resized = image.data[:, :, src_y[:, None], src_x[None, :]]

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
) -> list[Detection]:
    """Turn raw head tensors into box candidates in letterboxed pixel space.

    Per cell: class scores are per-class sigmoids; a cell survives when its
    best score exceeds conf_thresh. Each box side is the softmax-expected bin
    index of its distance distribution times the stride, measured outward from
    the cell center.
    """
    if len(raw) != len(strides):
        raise ValueError(f"got {len(raw)} head tensors for {len(strides)} strides")
    out: list[Detection] = []
    for tensor, stride in zip(raw, strides):
        expect_c = 4 * reg_max + num_classes
        if tensor.c != expect_c:
            raise ValueError(
                f"head tensor has {tensor.c} channels, expected 4*{reg_max}+{num_classes}={expect_c}"
            )
        if tensor.n != 1:
            raise ValueError("decode_head handles batch size 1")
        h, w = tensor.h, tensor.w
        flat = tensor.data.reshape(expect_c, h * w)
        cls_logits = flat[4 * reg_max :]
        best_logit = cls_logits.max(axis=0)
        # sigmoid is monotone, so thresholding logits first avoids computing
        # scores for discarded cells
        keep = _sigmoid(best_logit) > conf_thresh
        if not np.any(keep):
            continue
        idx = np.flatnonzero(keep)
        class_ids = cls_logits[:, idx].argmax(axis=0)
        scores = _sigmoid(cls_logits[class_ids, idx])

        dist_logits = flat[: 4 * reg_max, idx].reshape(4, reg_max, idx.size)
        probs = softmax_lastaxis(dist_logits.transpose(0, 2, 1))
        bins = np.arange(reg_max, dtype=np.float32)
        dists = (probs @ bins) * stride  # (4, M): left, top, right, bottom

        cx = (idx % w + 0.5) * stride
        cy = (idx // w + 0.5) * stride
        x1, y1 = cx - dists[0], cy - dists[1]
        x2, y2 = cx + dists[2], cy + dists[3]
        boxes = zip(x1.tolist(), y1.tolist(), x2.tolist(), y2.tolist())
        out.extend(map(Detection, class_ids.tolist(), scores.tolist(), boxes))
    return out


def _iou_one_many(box: np.ndarray, others: np.ndarray) -> np.ndarray:
    ix1 = np.maximum(box[0], others[:, 0])
    iy1 = np.maximum(box[1], others[:, 1])
    ix2 = np.minimum(box[2], others[:, 2])
    iy2 = np.minimum(box[3], others[:, 3])
    inter = np.maximum(0.0, ix2 - ix1) * np.maximum(0.0, iy2 - iy1)
    area = (box[2] - box[0]) * (box[3] - box[1])
    areas = (others[:, 2] - others[:, 0]) * (others[:, 3] - others[:, 1])
    union = area + areas - inter
    return np.where(union > 0, inter / np.maximum(union, 1e-30), 0.0)


def _sort_key(d: Detection):
    # Full ordering makes NMS output independent of input permutation.
    return (-d.score, d.class_id, d.box[0], d.box[1], d.box[2], d.box[3])


def nms(candidates: Sequence[Detection], iou_thresh: float) -> list[Detection]:
    """Greedy class-aware non-maximum suppression.

    Candidates are visited by descending score (ties broken by class id, then
    box coordinates); one is kept iff its IoU with every already-kept box of
    the same class is <= iou_thresh. The result stays sorted by that order.
    """
    ordered = sorted(candidates, key=_sort_key)
    by_class: dict[int, list[Detection]] = {}
    for det in ordered:
        by_class.setdefault(det.class_id, []).append(det)

    kept: list[Detection] = []
    for dets in by_class.values():
        boxes = np.array([d.box for d in dets], dtype=np.float64)
        alive = np.ones(len(dets), dtype=bool)
        for i, det in enumerate(dets):
            if not alive[i]:
                continue
            kept.append(det)
            later = np.flatnonzero(alive[i + 1 :]) + i + 1
            if later.size:
                ious = _iou_one_many(boxes[i], boxes[later])
                alive[later[ious > iou_thresh]] = False
    kept.sort(key=_sort_key)
    return kept


def unletterbox(dets: Sequence[Detection], meta: LetterboxMeta) -> list[Detection]:
    """Map boxes from letterboxed space back to original-image pixels,
    clipping to the image bounds."""
    out = []
    for d in dets:
        x1 = (d.box[0] - meta.pad_left) / meta.scale
        y1 = (d.box[1] - meta.pad_top) / meta.scale
        x2 = (d.box[2] - meta.pad_left) / meta.scale
        y2 = (d.box[3] - meta.pad_top) / meta.scale
        out.append(
            Detection(
                class_id=d.class_id,
                score=d.score,
                box=(
                    min(max(x1, 0.0), meta.orig_w),
                    min(max(y1, 0.0), meta.orig_h),
                    min(max(x2, 0.0), meta.orig_w),
                    min(max(y2, 0.0), meta.orig_h),
                ),
            )
        )
    return out

"""Detection evaluation: IoU, greedy matching, precision/recall/F1, per-class
average precision by exact integration of the precision-recall envelope, and
mAP averaged over classes and over the IoU threshold sweep 0.50:0.05:0.95.
The sweep is matched in one pass: each IoU between a detection and a ground
truth of the same (image, class) is computed once and reused at every
threshold. `evaluate` runs with Python's cyclic garbage collector paused
(`_gcpause.gc_paused`), since its per-detection lists hold no reference
cycles; the collector's state is restored on return or raise.

Detections are (image_id, class_id, score, (x1, y1, x2, y2)) tuples and ground
truths are (image_id, class_id, (x1, y1, x2, y2)); boxes use pixel xyxy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._gcpause import gc_paused

__all__ = [
    "iou",
    "ClassMatches",
    "match_detections",
    "precision_recall_f1",
    "average_precision",
    "EvalReport",
    "evaluate",
    "default_thresholds",
]

Box = tuple[float, float, float, float]
DetTuple = tuple[int, int, float, Box]
GtTuple = tuple[int, int, Box]


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection area over union area; 0 when the union is empty."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    if ax1 > ax2 or ay1 > ay2 or bx1 > bx2 or by1 > by2:
        raise ValueError(f"invalid box: expected x1<=x2 and y1<=y2, got {a} / {b}")
    # min and max written out, saving four builtin calls per pair; `b if b < a
    # else a` is what min(a, b) returns, NaN and signed zeros included.
    iw = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
    ih = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0:
        return 0.0
    return inter / union


@dataclass
class ClassMatches:
    """Matching outcome for one class at one IoU threshold."""

    is_tp: np.ndarray  # bool flags in descending score order
    num_gt: int

    @property
    def tp(self) -> int:
        return int(self.is_tp.sum())

    @property
    def fp(self) -> int:
        return int((~self.is_tp).sum())

    @property
    def fn(self) -> int:
        return self.num_gt - self.tp


def match_detections(
    dets: Iterable[DetTuple], gts: Iterable[GtTuple], iou_thresh: float
) -> dict[int, ClassMatches]:
    """Greedy matching: detections in descending score order claim their
    best-IoU unmatched same-class ground truth in the same image; a claim
    counts as TP iff that IoU >= iou_thresh. Each ground truth matches once.
    Returns the score-ordered TP flags and ground-truth count per class;
    scores and iou_thresh must be finite."""
    if not np.isfinite(iou_thresh):
        raise ValueError(f"IoU threshold {iou_thresh} is not finite")
    return _match_sweep(dets, gts, [iou_thresh])[0]


def _match_sweep(
    dets: Iterable[DetTuple], gts: Iterable[GtTuple], thresholds: Sequence[float]
) -> list[dict[int, ClassMatches]]:
    """`match_detections` at every threshold, in one pass over the detections.

    Detections are ranked once by descending score (ties keep input order),
    and each IoU between a detection and a ground truth of the same (image,
    class) key is computed once and reused by every threshold. A detection
    with no positive IoU is a false positive everywhere; the greedy rule then
    runs per threshold, with its own taken marks, over the rest, skipping a
    detection at thresholds above its best IoU, where it can claim nothing.
    """
    gt_by_key: dict[tuple[int, int], list[tuple[int, Box]]] = {}
    num_gt: dict[int, int] = {}
    for g, (image_id, class_id, box) in enumerate(gts):
        gt_by_key.setdefault((image_id, class_id), []).append((g, box))
        num_gt[class_id] = num_gt.get(class_id, 0) + 1

    dets = list(dets)
    scores = np.array([d[2] for d in dets], dtype=np.float64)
    if not np.isfinite(scores).all():
        i = int(np.flatnonzero(~np.isfinite(scores))[0])
        raise ValueError(f"detection {i} has a non-finite score {scores[i]}")
    order = np.argsort(-scores, kind="stable")

    # Rank positions per class, and (rank, best IoU, [(gt index, IoU > 0)])
    # for each detection that overlaps a ground truth of its key.
    ranks_by_class: dict[int, list[int]] = {}
    overlapping: list[tuple[int, float, list[tuple[int, float]]]] = []
    for rank, i in enumerate(order.tolist()):
        image_id, class_id, _, box = dets[i]
        ranks_by_class.setdefault(class_id, []).append(rank)
        same_key = gt_by_key.get((image_id, class_id))
        if same_key is None:
            continue
        pairs, best = [], 0.0
        for g, gt_box in same_key:
            v = iou(box, gt_box)
            if v > 0.0:
                pairs.append((g, v))
                if v > best:
                    best = v
        if pairs:
            overlapping.append((rank, best, pairs))

    classes = []
    for cid in sorted(set(num_gt) | set(ranks_by_class)):
        rows = np.array(ranks_by_class.get(cid, ()), dtype=np.intp)
        classes.append((cid, rows, num_gt.get(cid, 0)))
    n_gt = sum(num_gt.values())

    results = []
    for t in thresholds:
        taken = [False] * n_gt
        is_tp = np.zeros(len(dets), dtype=bool)
        for rank, best, pairs in overlapping:
            if best < t:
                continue
            best_iou, best_g = 0.0, -1
            for g, v in pairs:
                if v > best_iou and not taken[g]:
                    best_iou, best_g = v, g
            if best_g >= 0 and best_iou >= t:
                taken[best_g] = True
                is_tp[rank] = True
        results.append({cid: ClassMatches(is_tp[rows], n) for cid, rows, n in classes})
    return results


def precision_recall_f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """P = TP/(TP+FP), R = TP/(TP+FN), F1 = 2PR/(P+R); each 0/0 defines to 0."""
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("counts must be non-negative")
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def average_precision(matches: ClassMatches) -> float | None:
    """Exact area under the monotone precision envelope over recall, where
    the curve's points are the cumulative precision and recall after each
    detection in descending-score order.

    Returns None for classes with no ground truths; these are excluded from
    any averaging.
    """
    if matches.num_gt == 0:
        return None
    ct = np.cumsum(matches.is_tp.astype(np.float64))
    mrec = np.concatenate(([0.0], ct / matches.num_gt))
    mpre = np.concatenate(([1.0], ct / np.arange(1, ct.size + 1)))
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


def default_thresholds() -> list[float]:
    return [round(0.5 + 0.05 * i, 2) for i in range(10)]


@dataclass
class EvalReport:
    """Per-class AP table plus the headline aggregates."""

    thresholds: list[float]
    class_ids: list[int]
    ap: dict[int, dict[float, float | None]]
    map_by_thresh: dict[float, float]
    map50: float
    map5095: float
    operating_conf: float
    precision: float
    recall: float
    f1: float


@gc_paused
def evaluate(
    dets: Iterable[DetTuple],
    gts: Iterable[GtTuple],
    thresholds: Sequence[float] | None = None,
    operating_conf: float = 0.25,
) -> EvalReport:
    """Full evaluation: AP per class per threshold, mAP@0.5, mAP@[.5:.95],
    and micro-averaged P/R/F1 at IoU 0.5 for detections above operating_conf.
    Scores and operating_conf must be finite, and the thresholds distinct,
    finite, in [0, 1], and include 0.5."""
    # the AP sweep and the operating-point match both read the inputs, so an
    # iterator is drained once here rather than silently emptied by the first
    dets, gts = list(dets), list(gts)
    thresholds = list(thresholds) if thresholds is not None else default_thresholds()
    for i, t in enumerate(thresholds):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"IoU threshold {t} is not a finite value in [0, 1]")
        if t in thresholds[:i]:
            raise ValueError(f"IoU threshold {t} repeats in {thresholds}")
    if 0.5 not in thresholds:
        raise ValueError(f"thresholds {thresholds} must include 0.5 for mAP@0.5")
    if not np.isfinite(operating_conf):
        raise ValueError(f"operating_conf {operating_conf} is not finite")
    ap: dict[int, dict[float, float | None]] = {}
    for t, by_class in zip(thresholds, _match_sweep(dets, gts, thresholds)):
        for cid, matches in by_class.items():
            ap.setdefault(cid, {})[t] = average_precision(matches)
    # mAP per threshold over the classes with ground truths, then over thresholds.
    map_by_thresh: dict[float, float] = {}
    for t in thresholds:
        values = [aps[t] for aps in ap.values() if aps[t] is not None]
        if not values:
            raise ValueError("no class with ground truths to evaluate")
        map_by_thresh[t] = float(np.mean(values))

    working = [d for d in dets if d[2] >= operating_conf]
    at_conf = match_detections(working, gts, 0.5).values()
    tp = sum(m.tp for m in at_conf)
    fp = sum(m.fp for m in at_conf)
    fn = sum(m.fn for m in at_conf)
    p, r, f1 = precision_recall_f1(tp, fp, fn)

    return EvalReport(
        thresholds=thresholds,
        class_ids=sorted(ap),
        ap=ap,
        map_by_thresh=map_by_thresh,
        map50=map_by_thresh[0.5],
        map5095=float(np.mean([map_by_thresh[t] for t in thresholds])),
        operating_conf=operating_conf,
        precision=p,
        recall=r,
        f1=f1,
    )

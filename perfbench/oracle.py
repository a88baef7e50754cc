"""Independent reference for the benchmark's output checks.

`evaluate_json` scores a COCO-like detections/annotations pair without the
engine: it groups by (image, class), builds each group's IoU matrix once with
numpy, runs the greedy matching rule per threshold on those matrices, and
integrates the precision envelope per class. The checks compare the engine's
`metrics.evaluate` with it to 1e-9. `pairwise_iou` serves the NMS check.
"""
from __future__ import annotations

import json
from collections import defaultdict

import numpy as np


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every xyxy box in `a` (n, 4) with every box in `b` (m, 4)."""
    a = np.asarray(a, dtype=np.float64)[:, None, :]
    b = np.asarray(b, dtype=np.float64)[None, :, :]
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = iw * ih
    union = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1]) + (b[..., 2] - b[..., 0]) * (
        b[..., 3] - b[..., 1]
    ) - inter
    ok = (iw > 0) & (ih > 0) & (union > 0)
    return np.where(ok, inter / np.where(ok, union, 1.0), 0.0)


def _xyxy(bbox) -> list[float]:
    return [bbox[0], bbox[1], bbox[0] + bbox[2], bbox[1] + bbox[3]]


def _greedy(ious: np.ndarray, thresh: float) -> list[bool]:
    """Score-ordered rows claim their best-IoU unclaimed column; TP iff IoU >= thresh."""
    taken = [False] * ious.shape[1]
    flags = []
    for row in ious.tolist():
        best, best_j = 0.0, -1
        for j, v in enumerate(row):
            if not taken[j] and v > best:
                best, best_j = v, j
        hit = best_j >= 0 and best >= thresh
        if hit:
            taken[best_j] = True
        flags.append(hit)
    return flags


def _match(n_dets, order, ious, thresh):
    """TP flag per detection (indexed like the inputs) for one IoU threshold."""
    is_tp = np.zeros(n_dets, dtype=bool)
    for key, rows in order.items():
        if key in ious:
            matrix, row_of = ious[key]
            is_tp[rows] = _greedy(matrix[[row_of[i] for i in rows.tolist()]], thresh)
    return is_tp


def _ap(flags: np.ndarray, num_gt: int) -> float:
    if flags.size == 0:
        return 0.0
    tp = np.cumsum(flags)
    precision = tp / np.arange(1, flags.size + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    return float(envelope[flags].sum() / num_gt)


def evaluate_json(det_text: str, ann_text: str, thresholds, operating_conf: float) -> dict:
    dets = json.loads(det_text)
    anns = json.loads(ann_text)["annotations"]
    det_img = np.array([d["image_id"] for d in dets], dtype=np.int64)
    det_cls = np.array([d["category_id"] for d in dets], dtype=np.int64)
    score = np.array([float(d["score"]) for d in dets], dtype=np.float64)
    det_box = np.array([_xyxy([float(v) for v in d["bbox"]]) for d in dets], dtype=np.float64)
    gt_boxes: dict[tuple, list] = defaultdict(list)
    num_gt: dict[int, int] = defaultdict(int)
    for a in anns:
        gt_boxes[(a["image_id"], a["category_id"])].append(_xyxy([float(v) for v in a["bbox"]]))
        num_gt[a["category_id"]] += 1
    total_gt = sum(num_gt.values())

    def groups(selected: np.ndarray):
        # Detection indices per (image, class), in descending score then input order.
        rank = selected[np.lexsort((selected, -score[selected]))]
        out: dict[tuple, list] = defaultdict(list)
        for i in rank.tolist():
            out[(int(det_img[i]), int(det_cls[i]))].append(i)
        return rank, {k: np.array(v) for k, v in out.items()}

    rank, order = groups(np.arange(len(dets)))
    # One IoU matrix per (image, class) over all of its detections, reused
    # across thresholds; row_of maps a detection index to its row.
    ious = {}
    for key, rows in order.items():
        if key in gt_boxes:
            matrix = pairwise_iou(det_box[rows], np.array(gt_boxes[key]))
            ious[key] = (matrix, {i: r for r, i in enumerate(rows.tolist())})

    classes = sorted(set(num_gt) | set(det_cls.tolist()))
    ap: dict[str, list] = {str(c): [] for c in classes}
    map_by_thresh = {}
    for t in thresholds:
        is_tp = _match(len(dets), order, ious, t)
        values = []
        for c in classes:
            if num_gt.get(c, 0) == 0:
                ap[str(c)].append(None)
                continue
            ranked = rank[det_cls[rank] == c]
            value = _ap(is_tp[ranked], num_gt[c])
            ap[str(c)].append(value)
            values.append(value)
        map_by_thresh[str(t)] = sum(values) / len(values)

    working = np.flatnonzero(score >= operating_conf)
    _, work_order = groups(working)
    is_tp = _match(len(dets), work_order, ious, 0.5)
    tp = int(is_tp[working].sum())
    fp = int(working.size - tp)
    fn = total_gt - tp
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    mvals = list(map_by_thresh.values())
    return {
        "map_by_thresh": map_by_thresh,
        "map50": map_by_thresh[str(thresholds[0])],
        "map5095": sum(mvals) / len(mvals),
        "precision": p,
        "recall": r,
        "f1": f1,
        "ap": ap,
        "num_detections": len(dets),
        "num_images": len(json.loads(ann_text)["images"]),
    }

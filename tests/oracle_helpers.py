"""Independent reference implementations used as oracles by the test suite.

Nothing here shares code paths with the package: convolution is the literal
seven-loop definition, max pooling scans windows explicitly, and AP/mAP is a
direct per-(threshold, class) enumeration. Keep it that way. The graph walks
are the exception: they drive the package's own blocks and kernels, but each
resolves layer inputs and dispatches on layer kind in its own loop, one loop
per purpose, which is what ModelGraph's single walker must reproduce.
`conv_block_forward_unfused` is ConvBlock's forward from before batch-norm
folding: the convolution with the unfolded spec, then batch-norm as a
per-channel multiply-add. The matching references are the other exception: they are the per-threshold
greedy loop and evaluation that `metrics._match_sweep` replaced, scoring with
the package's scalar `iou` and building its ledger and report types.
`unletterbox_reference` and `init_random_reference` are the per-record and
per-leaf loops that `postprocess.unletterbox` and `ModelGraph.init_random`
replaced. `decode_head_reference` and `nms_reference` are the per-scale decode
and the per-record greedy NMS that the columnar `postprocess.decode_head` and
`postprocess.nms` replaced; the decode drives the package's `sigmoid` and
`softmax_lastaxis`. `softmax_reference` is `softmax_lastaxis` with the row
maximum taken by numpy's reduction for every row length, and
`letterbox_reference` is `postprocess.letterbox` with its resize as one 2-D
fancy index.
"""
from __future__ import annotations

import numpy as np


def conv2d_direct(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    groups: int,
) -> np.ndarray:
    """Naive direct convolution: explicit loops over every output element."""
    n, c_in, h, w = x.shape
    c_out, cpg, kh, kw = weight.shape
    opg = c_out // groups
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow), dtype=np.float64)
    for ni in range(n):
        for co in range(c_out):
            g = co // opg
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cpg):
                        for ky in range(kh):
                            iy = oy * stride + ky - padding
                            if iy < 0 or iy >= h:
                                continue
                            for kx in range(kw):
                                ix = ox * stride + kx - padding
                                if ix < 0 or ix >= w:
                                    continue
                                acc += float(x[ni, g * cpg + ci, iy, ix]) * float(
                                    weight[co, ci, ky, kx]
                                )
                    if bias is not None:
                        acc += float(bias[co])
                    out[ni, co, oy, ox] = acc
    return out


def maxpool2d_direct(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """Window-scanning max pool; out-of-bounds cells are skipped (same as -inf fill)."""
    n, c, h, w = x.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    best = -np.inf
                    for ky in range(k):
                        iy = oy * stride + ky - padding
                        if iy < 0 or iy >= h:
                            continue
                        for kx in range(k):
                            ix = ox * stride + kx - padding
                            if ix < 0 or ix >= w:
                                continue
                            v = x[ni, ci, iy, ix]
                            if v > best:
                                best = v
                    out[ni, ci, oy, ox] = best
    return out


def walk_shapes_reference(graph, input_size: int) -> list[tuple[int, int, int]]:
    """Per-layer output (channels, h, w) of `graph` at a square input size."""
    shapes: list[tuple[int, int, int]] = []
    cur = (3, input_size, input_size)
    for spec, block in zip(graph.layers, graph.blocks):
        ins = [cur if f == spec.index - 1 else shapes[f] for f in spec.froms]
        c, h, w = ins[0]
        if spec.kind == "Upsample":
            out = (c, 2 * h, 2 * w)
        elif spec.kind == "Concat":
            out = (sum(i[0] for i in ins), h, w)
        elif spec.kind == "DetectHead":
            out = (block.out_channels, h, w)
        elif spec.kind == "ConvBlock":
            k, s, p = block.spec.kernel, block.spec.stride, block.spec.padding
            out = (block.out_channels, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)
        else:
            out = (block.out_channels, h, w)
        shapes.append(out)
        cur = out
    return shapes


def count_flops_reference(graph, input_size: int) -> float:
    """GFLOPs of `graph` at batch 1: per-layer block FLOPs summed in layer order."""
    shapes = walk_shapes_reference(graph, input_size)
    total = 0.0
    for spec, block in zip(graph.layers, graph.blocks):
        if spec.kind in ("Upsample", "Concat"):
            continue
        ins = [shapes[f] if f >= 0 else (3, input_size, input_size) for f in spec.froms]
        if spec.kind == "DetectHead":
            total += block.flops([(h, w) for _, h, w in ins])
        else:
            _, h, w = ins[0]
            total += block.flops(h, w)
    return total / 1e9


def forward_reference(graph, image):
    """Layer-by-layer forward of `graph`. Returns the head tensors and each
    layer's output shape (for the head layer, that of its P3 tensor)."""
    from y11.tensor import concat_channels, upsample_nearest2x

    cache = {}
    shapes = []
    x = image
    for spec, block in zip(graph.layers, graph.blocks):
        inputs = [x if f == spec.index - 1 else cache[f] for f in spec.froms]
        if spec.kind == "Upsample":
            out = upsample_nearest2x(inputs[0])
        elif spec.kind == "Concat":
            out = concat_channels(inputs)
        elif spec.kind == "DetectHead":
            out = block(inputs)
        else:
            out = block(inputs[0])
        shapes.append(tuple(out[0].shape if spec.kind == "DetectHead" else out.shape))
        cache[spec.index] = out
        x = out
    return x, shapes


def conv_block_forward_unfused(block, x):
    """ConvBlock forward with batch-norm applied after the convolution."""
    from y11.tensor import Tensor, conv2d, silu

    y = conv2d(x, block.spec)
    if block.bn is not None:
        scale, shift = block.bn.scale_shift()
        z = y.data * scale[:, None, None]
        z += shift[:, None, None]
        y = Tensor._wrap(z)
    if block.act == "silu":
        y = silu(y)
    return y


def unletterbox_reference(dets, meta):
    """Per-record unletterbox: each box float mapped and clipped with Python's
    min and max, as `postprocess.unletterbox` did before it mapped arrays."""
    from y11.postprocess import Detection

    out = []
    for d in dets:
        x1 = (d.box[0] - meta.pad_left) / meta.scale
        y1 = (d.box[1] - meta.pad_top) / meta.scale
        x2 = (d.box[2] - meta.pad_left) / meta.scale
        y2 = (d.box[3] - meta.pad_top) / meta.scale
        box = (
            min(max(x1, 0.0), meta.orig_w),
            min(max(y1, 0.0), meta.orig_h),
            min(max(x2, 0.0), meta.orig_w),
            min(max(y2, 0.0), meta.orig_h),
        )
        out.append(Detection(d.class_id, d.score, box))
    return out


def letterbox_reference(image, target: int):
    from y11.postprocess import PAD_VALUE, LetterboxMeta
    from y11.tensor import Tensor

    h, w = image.h, image.w
    scale = min(target / w, target / h)
    new_w, new_h = max(1, round(w * scale)), max(1, round(h * scale))
    src_x = np.minimum((np.arange(new_w) + 0.5) * (w / new_w), w - 1).astype(np.int64)
    src_y = np.minimum((np.arange(new_h) + 0.5) * (h / new_h), h - 1).astype(np.int64)
    pad_left, pad_top = (target - new_w) // 2, (target - new_h) // 2
    canvas = np.full((1, 3, target, target), PAD_VALUE, dtype=np.float32)
    canvas[:, :, pad_top : pad_top + new_h, pad_left : pad_left + new_w] = (
        image.data[:, :, src_y[:, None], src_x[None, :]]
    )
    return Tensor(canvas), LetterboxMeta(scale, pad_left, pad_top, w, h)


def softmax_reference(a):
    a = np.asarray(a, dtype=np.float32)
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def decode_head_reference(raw, strides, reg_max, num_classes, conf_thresh):
    """One scale at a time: the cells whose best class score exceeds
    conf_thresh, as `Detection` records in scale order, then cell order."""
    from y11.postprocess import Detection
    from y11.tensor import sigmoid, softmax_lastaxis

    out = []
    for tensor, stride in zip(raw, strides):
        h, w = tensor.h, tensor.w
        flat = tensor.data.reshape(4 * reg_max + num_classes, h * w)
        cls_logits = flat[4 * reg_max :]
        keep = sigmoid(cls_logits.max(axis=0)) > conf_thresh
        if not np.any(keep):
            continue
        idx = np.flatnonzero(keep)
        class_ids = cls_logits[:, idx].argmax(axis=0)
        scores = sigmoid(cls_logits[class_ids, idx])
        dist_logits = flat[: 4 * reg_max, idx].reshape(4, reg_max, idx.size)
        probs = softmax_lastaxis(dist_logits.transpose(0, 2, 1))
        dists = (probs @ np.arange(reg_max, dtype=np.float32)) * stride
        cx = (idx % w + 0.5) * stride
        cy = (idx // w + 0.5) * stride
        boxes = zip((cx - dists[0]).tolist(), (cy - dists[1]).tolist(),
                    (cx + dists[2]).tolist(), (cy + dists[3]).tolist())
        out.extend(map(Detection, class_ids.tolist(), scores.tolist(), boxes))
    return out


def _iou_one_many(box, others):
    ix1 = np.maximum(box[0], others[:, 0])
    iy1 = np.maximum(box[1], others[:, 1])
    ix2 = np.minimum(box[2], others[:, 2])
    iy2 = np.minimum(box[3], others[:, 3])
    inter = np.maximum(0.0, ix2 - ix1) * np.maximum(0.0, iy2 - iy1)
    area = (box[2] - box[0]) * (box[3] - box[1])
    areas = (others[:, 2] - others[:, 0]) * (others[:, 3] - others[:, 1])
    union = area + areas - inter
    return np.where(union > 0, inter / np.maximum(union, 1e-30), 0.0)


def _sort_key(d):
    return (-d.score, d.class_id, d.box[0], d.box[1], d.box[2], d.box[3])


def nms_reference(candidates, iou_thresh):
    """Greedy class-aware NMS over `Detection` records: sorted by the full key
    (-score, class, x1, y1, x2, y2), one record list per class, and one IoU
    round per kept box against the later live boxes of its class."""
    ordered = sorted(candidates, key=_sort_key)
    by_class = {}
    for det in ordered:
        by_class.setdefault(det.class_id, []).append(det)
    kept = []
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


def init_random_reference(graph, seed: int):
    """Per-leaf seeded init through `set_entry`, as `ModelGraph.init_random`
    did before it went through `load_state`: one uniform(+-sqrt(6/fan_in))
    draw per conv weight, zero biases, identity batch-norm."""
    import math

    rng = np.random.default_rng(seed)
    for _, leaf in graph.named_leaf_blocks():
        spec = leaf.spec
        fan_in = (spec.in_channels // spec.groups) * spec.kernel * spec.kernel
        bound = math.sqrt(6.0 / fan_in)
        leaf.set_entry("weight", rng.uniform(-bound, bound, spec.weight.shape).astype(np.float32))
        if spec.bias is not None:
            leaf.set_entry("bias", np.zeros(spec.out_channels, dtype=np.float32))
        if leaf.bn is not None:
            c = leaf.bn.channels
            leaf.set_entry("gamma", np.ones(c, dtype=np.float32))
            leaf.set_entry("beta", np.zeros(c, dtype=np.float32))
            leaf.set_entry("mean", np.zeros(c, dtype=np.float32))
            leaf.set_entry("var", np.ones(c, dtype=np.float32))
    return graph


def _iou_plain(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def brute_force_ap(dets, gts, class_id: int, iou_thresh: float) -> float | None:
    """AP for one class at one threshold by direct enumeration.

    dets: (image_id, class_id, score, xyxy); gts: (image_id, class_id, xyxy).
    Ties in score keep input order, matching the greedy protocol under test.
    """
    class_gts = [(g[0], g[2]) for g in gts if g[1] == class_id]
    npos = len(class_gts)
    if npos == 0:
        return None
    class_dets = [d for d in dets if d[1] == class_id]
    class_dets = sorted(enumerate(class_dets), key=lambda kv: (-kv[1][2], kv[0]))

    matched = [False] * npos
    tp_flags = []
    for _, (image_id, _, _, box) in class_dets:
        best, best_j = 0.0, -1
        for j, (gt_img, gt_box) in enumerate(class_gts):
            if gt_img != image_id or matched[j]:
                continue
            v = _iou_plain(box, gt_box)
            if v > best:
                best, best_j = v, j
        if best_j >= 0 and best >= iou_thresh:
            matched[best_j] = True
            tp_flags.append(True)
        else:
            tp_flags.append(False)

    precisions, recalls = [], []
    tp_count = 0
    for k, flag in enumerate(tp_flags, start=1):
        tp_count += int(flag)
        precisions.append(tp_count / k)
        recalls.append(tp_count / npos)

    ap = 0.0
    prev_recall = 0.0
    for k, flag in enumerate(tp_flags):
        if not flag:
            continue
        interp = max(precisions[k:])
        ap += (recalls[k] - prev_recall) * interp
        prev_recall = recalls[k]
    return ap


def brute_force_map(dets, gts, thresholds):
    """mAP by enumerating every (threshold, class) pair independently.

    Returns (map_by_thresh, overall). Classes without ground truths are
    excluded from every average.
    """
    class_ids = sorted({g[1] for g in gts})
    map_by_thresh = {}
    for t in thresholds:
        aps = [brute_force_ap(dets, gts, cid, t) for cid in class_ids]
        aps = [a for a in aps if a is not None]
        map_by_thresh[t] = sum(aps) / len(aps)
    overall = sum(map_by_thresh[t] for t in thresholds) / len(thresholds)
    return map_by_thresh, overall


def match_detections_reference(dets, gts, iou_thresh: float):
    """Greedy matching at one threshold, re-sorting the detections and
    recomputing every IoU against the not-yet-taken ground truths of the key."""
    from y11.metrics import ClassMatches, iou

    gt_by_key = {}
    num_gt = {}
    for image_id, class_id, box in gts:
        gt_by_key.setdefault((image_id, class_id), []).append(box)
        num_gt[class_id] = num_gt.get(class_id, 0) + 1

    matched = {key: np.zeros(len(boxes), dtype=bool) for key, boxes in gt_by_key.items()}
    order = sorted(enumerate(dets), key=lambda kv: (-kv[1][2], kv[0]))

    flags = {}
    for _, (image_id, class_id, score, box) in order:
        key = (image_id, class_id)
        candidates = gt_by_key.get(key, [])
        best_iou, best_j = 0.0, -1
        taken = matched.get(key)
        for j, gt_box in enumerate(candidates):
            if taken[j]:
                continue
            v = iou(box, gt_box)
            if v > best_iou:
                best_iou, best_j = v, j
        is_tp = best_j >= 0 and best_iou >= iou_thresh
        if is_tp:
            taken[best_j] = True
        flags.setdefault(class_id, []).append((score, is_tp))

    by_class = {}
    for cid in sorted(set(num_gt) | set(flags)):
        entries = flags.get(cid, [])
        by_class[cid] = ClassMatches(
            scores=np.array([s for s, _ in entries], dtype=np.float64),
            is_tp=np.array([t for _, t in entries], dtype=bool),
            num_gt=num_gt.get(cid, 0),
        )
    return by_class


def evaluate_reference(dets, gts, thresholds, operating_conf: float = 0.25):
    """`metrics.evaluate` with one `match_detections_reference` call per threshold."""
    from y11.metrics import EvalReport, average_precision, precision_recall_f1

    thresholds = list(thresholds)
    ap = {}
    for t in thresholds:
        for cid, matches in match_detections_reference(dets, gts, t).items():
            ap.setdefault(cid, {})[t] = average_precision(matches)
    map_by_thresh = {
        t: float(np.mean([aps[t] for aps in ap.values() if aps[t] is not None]))
        for t in thresholds
    }
    map5095 = float(np.mean([map_by_thresh[t] for t in thresholds]))

    working = [d for d in dets if d[2] >= operating_conf]
    ledger = match_detections_reference(working, gts, 0.5)
    tp = sum(m.tp for m in ledger.values())
    fp = sum(m.fp for m in ledger.values())
    fn = sum(m.fn for m in ledger.values())
    p, r, f1 = precision_recall_f1(tp, fp, fn)
    return EvalReport(thresholds, sorted(ap), ap, map_by_thresh, map_by_thresh[0.5], map5095,
                      operating_conf, p, r, f1)

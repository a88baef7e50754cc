"""The two kinds of workload operation and their output checks.

Every engine call goes through a module attribute (`io_formats.read_ppm`,
`postprocess.nms`, ...) or a public method, so the traced run sees it once
`spans.install` has rebound it. Checks run after the timed loop and return a
failure reason, or None when the output is correct.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
from y11 import graph, io_formats, metrics, postprocess

import common
import oracle
import spans

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Head tensors on the probe image may differ from reference.json by this much,
# elementwise: |value - reference| <= HEAD_TOL * (1 + |reference|). Folding
# every batch-norm into its convolution moves them by under 1e-5 on this scale.
HEAD_TOL = 1e-3
HEAD_SAMPLES = 257
EVAL_TOL = 1e-9
# Slack for the 6-decimal rounding of write_detections.
DUMP_EPS = 1e-5


def head_summary(raw) -> list[dict]:
    """Per head tensor: its shape, per-channel means and evenly spaced samples."""
    out = []
    for t in raw:
        data = np.asarray(t.data, dtype=np.float64)
        flat = data.ravel()
        idx = np.linspace(0, flat.size - 1, HEAD_SAMPLES).astype(np.int64)
        out.append({
            "shape": list(data.shape),
            "channel_mean": data.mean(axis=(0, 2, 3)).tolist(),
            "samples": flat[idx].tolist(),
        })
    return out


def compare_heads(summary: list[dict], reference: list[dict]) -> str | None:
    if [s["shape"] for s in summary] != [r["shape"] for r in reference]:
        return f"head shapes {[s['shape'] for s in summary]} != reference {[r['shape'] for r in reference]}"
    for i, (s, r) in enumerate(zip(summary, reference)):
        for key in ("channel_mean", "samples"):
            got, ref = np.array(s[key]), np.array(r[key])
            err = np.abs(got - ref) / (1.0 + np.abs(ref))
            if not np.all(np.isfinite(got)) or err.max() > HEAD_TOL:
                j = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
                return f"head {i} {key}[{j}] = {got[j]!r}, reference {ref[j]!r} (tol {HEAD_TOL})"
    return None


class Workload:
    """Model set-up shared by every workload: build_graph + read_weights + load_state."""

    warmup = 1

    def __init__(self, cfg: dict, work: Path, manifest: dict) -> None:
        self.cfg = cfg
        self.manifest = manifest
        self.weights = (work / "weights.y11w").read_bytes()
        self.model = None
        self.tracer = None  # set by the runner for the traced run

    def setup(self) -> None:
        self.model = None  # a repeated set-up replaces the model, never holds two
        model = graph.build_graph(self.cfg["variant"], num_classes=common.NUM_CLASSES,
                                  reg_max=common.REG_MAX)
        model.load_state(io_formats.read_weights(self.weights))
        self.model = model

    def probe(self) -> str | None:
        return None


@dataclass
class DetectOut:
    index: int
    image_size: tuple[int, int]
    cells: int
    candidates: int
    kept: list
    text: str
    forward_s: float


class Detect(Workload):
    warmup = 2

    def __init__(self, cfg, work, manifest) -> None:
        super().__init__(cfg, work, manifest)
        names = sorted(n for n in manifest["files"] if n.startswith("image"))
        self.images = [(work / n).read_bytes() for n in names]
        self.probe_bytes = (work / "probe.ppm").read_bytes()

    def op(self, i: int, traced: bool) -> DetectOut:
        size, model = self.cfg["size"], self.model
        image = io_formats.read_ppm(self.images[i % len(self.images)])
        boxed, meta = postprocess.letterbox(image, size)
        t0 = perf_counter()
        raw = spans.walk_forward(model, boxed, self.tracer) if traced else model.forward(boxed)
        forward_s = perf_counter() - t0
        candidates = postprocess.decode_head(raw, model.strides, model.reg_max,
                                             model.num_classes, self.cfg["conf"])
        kept = postprocess.nms(candidates, self.cfg["iou"])
        dets = postprocess.unletterbox(kept, meta)
        text = io_formats.write_detections([
            io_formats.DumpDetection(i, d.class_id,
                                     (d.box[0], d.box[1], d.box[2] - d.box[0], d.box[3] - d.box[1]),
                                     d.score)
            for d in dets
        ])
        cells = sum(t.h * t.w for t in raw)
        return DetectOut(i, (image.w, image.h), cells, len(candidates), kept, text, forward_s)

    def probe(self) -> str | None:
        refs = json.loads(REFERENCE.read_text(encoding="utf-8"))
        ref = refs.get(str(self.cfg["size"]))
        if ref is None:
            return f"no reference head tensors for size {self.cfg['size']}"
        files = self.manifest["files"]
        if (ref["weights_sha256"], ref["probe_sha256"]) != (files["weights.y11w"], files["probe.ppm"]):
            return "probe inputs differ from the ones the reference was recorded with"
        boxed, _ = postprocess.letterbox(io_formats.read_ppm(self.probe_bytes), self.cfg["size"])
        return compare_heads(head_summary(self.model.forward(boxed)), ref["heads"])

    def check(self, out: DetectOut) -> str | None:
        conf, iou_thresh = self.cfg["conf"], self.cfg["iou"]
        records = json.loads(out.text)
        if len(records) != len(out.kept):
            return f"wrote {len(records)} records for {len(out.kept)} kept detections"
        w, h = out.image_size
        last = math.inf
        for r in records:
            x, y, bw, bh = r["bbox"]
            score = r["score"]
            if not all(math.isfinite(v) for v in (x, y, bw, bh, score)):
                return f"non-finite record {r}"
            if r["image_id"] != out.index or not 0 <= r["category_id"] < common.NUM_CLASSES:
                return f"bad ids in {r}"
            if bw < 0 or bh < 0:
                return f"x1 > x2 or y1 > y2 in {r}"
            if x < -DUMP_EPS or y < -DUMP_EPS or x + bw > w + DUMP_EPS or y + bh > h + DUMP_EPS:
                return f"box outside the {w}x{h} image: {r}"
            if score < conf - DUMP_EPS or score > 1.0 or score > last:
                return f"score {score} below conf, above 1 or out of order"
            last = score
        if any(not d.score > conf for d in out.kept):
            return "kept a detection at or below conf"
        by_class: dict[int, list] = {}
        for d in out.kept:
            by_class.setdefault(d.class_id, []).append(d.box)
        for cid, boxes in by_class.items():
            ious = oracle.pairwise_iou(np.array(boxes), np.array(boxes))
            np.fill_diagonal(ious, 0.0)
            if ious.max() > iou_thresh:
                return f"class {cid}: kept pair with IoU {ious.max():.4f} > {iou_thresh}"
        return None

    @staticmethod
    def units(out: DetectOut) -> tuple[int, int]:
        # Images done, and detections scored: every head cell is scored
        # against conf.
        return 1, out.cells


@dataclass
class EvalOut:
    report: object
    images: int
    detections: int


class Eval(Workload):
    def __init__(self, cfg, work, manifest) -> None:
        super().__init__(cfg, work, manifest)
        self.det_text = (work / "detections.json").read_text(encoding="utf-8")
        self.ann_text = (work / "annotations.json").read_text(encoding="utf-8")

    def op(self, i: int, traced: bool) -> EvalOut:
        dets = io_formats.read_detections(self.det_text)
        anns = io_formats.read_annotations(self.ann_text)
        det_tuples = [
            (d.image_id, d.category_id, d.score,
             (d.bbox[0], d.bbox[1], d.bbox[0] + d.bbox[2], d.bbox[1] + d.bbox[3]))
            for d in dets
        ]
        gt_tuples = [
            (a.image_id, a.category_id,
             (a.bbox[0], a.bbox[1], a.bbox[0] + a.bbox[2], a.bbox[1] + a.bbox[3]))
            for a in anns.annotations
        ]
        report = metrics.evaluate(det_tuples, gt_tuples, common.THRESHOLDS, common.OPERATING_CONF)
        return EvalOut(report, len(anns.images), len(dets))

    def check(self, out: EvalOut) -> str | None:
        exp, rep = self.manifest["expected"], out.report
        pairs = [("map50", rep.map50, exp["map50"]), ("map5095", rep.map5095, exp["map5095"]),
                 ("precision", rep.precision, exp["precision"]), ("recall", rep.recall, exp["recall"]),
                 ("f1", rep.f1, exp["f1"])]
        pairs += [(f"map@{t}", rep.map_by_thresh[t], exp["map_by_thresh"][str(t)])
                  for t in common.THRESHOLDS]
        if sorted(rep.class_ids) != sorted(int(c) for c in exp["ap"]):
            return "evaluated class set differs from the reference"
        for cid in rep.class_ids:
            for t, want in zip(common.THRESHOLDS, exp["ap"][str(cid)]):
                got = rep.ap[cid][t]
                if (got is None) != (want is None):
                    return f"class {cid} AP@{t}: {got} vs reference {want}"
                if got is not None:
                    pairs.append((f"class {cid} AP@{t}", got, want))
        for name, got, want in pairs:
            if not abs(got - want) <= EVAL_TOL:
                return f"{name} = {got!r}, independent reference {want!r}"
        return None

    @staticmethod
    def units(out: EvalOut) -> tuple[int, int]:
        return out.images, out.detections


def make(cfg: dict, work: Path, manifest: dict) -> Workload:
    return (Detect if cfg["kind"] == "detect" else Eval)(cfg, work, manifest)

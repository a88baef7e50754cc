"""Command-line front end: infer, eval, bench, summary.

Exit codes: 0 success, 1 usage error, 2 data/format error. Heavy imports stay
inside the command functions so Y11_THREADS can cap BLAS pools before numpy
loads.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from ._gcpause import gc_paused

# `infer`'s default operating point, which `bench` always times.
_CONF, _IOU = 0.25, 0.45


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; our contract is 1
        raise UsageError(message)


def _size(value: str) -> int:
    size = int(value)
    if size < 32 or size % 32:
        raise argparse.ArgumentTypeError(f"size must be a positive multiple of 32, got {value}")
    return size


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return n


def _non_negative_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return n


def _fraction(value: str) -> float:
    f = float(value)
    if not 0.0 <= f <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in [0, 1], got {value}")
    return f


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="y11", description="CPU inference engine for YOLOv11-family detectors")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_model(p):
        p.add_argument("--variant", choices=("n", "s", "m", "l", "x"), default="n")
        p.add_argument("--size", type=_size, default=640, help="square input size, multiple of 32")

    p = sub.add_parser("infer", help="run detection on one PPM image")
    p.set_defaults(run=cmd_infer)
    common_model(p)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("image", help="binary PPM (P6) input image")
    p.add_argument("--nc", type=_positive_int, default=80, help="number of classes")
    p.add_argument("--weights", help="weights container; omitted = seeded random init")
    p.add_argument("--conf", type=_fraction, default=_CONF)
    p.add_argument("--iou", type=_fraction, default=_IOU)
    p.add_argument("--out", default="detections.json")
    p.add_argument("--image-id", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("eval", help="score a detections file against annotations")
    p.set_defaults(run=cmd_eval)
    p.add_argument("detections", help="detections JSON (as written by infer)")
    p.add_argument("annotations", help="annotation JSON (COCO-subset schema)")
    p.add_argument("--conf", type=_fraction, default=0.25, help="operating confidence for P/R/F1")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("bench", help="three-phase latency benchmark on synthetic input")
    p.set_defaults(run=cmd_bench)
    common_model(p)
    p.add_argument("--runs", type=_positive_int, default=10)
    p.add_argument("--warmup", type=_non_negative_int, default=2)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("summary", help="per-layer table, parameter and FLOP totals")
    p.set_defaults(run=cmd_summary)
    common_model(p)
    p.add_argument("--nc", type=_positive_int, default=80, help="number of classes")
    p.add_argument("--csv", help="also write the variant series (params/FLOPs) as CSV")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _run_pipeline(graph, image, size, conf, iou):
    """Letterbox / forward / decode+NMS+unmap, returning dets and phase times."""
    from .postprocess import decode_head, letterbox, nms, unletterbox

    t0 = time.perf_counter()
    boxed, meta = letterbox(image, size)
    t1 = time.perf_counter()
    raw = graph.forward(boxed)
    t2 = time.perf_counter()
    candidates = decode_head(raw, graph.strides, graph.reg_max, graph.num_classes, conf)
    dets = unletterbox(nms(candidates, iou), meta)
    t3 = time.perf_counter()
    times = {
        "preprocess": (t1 - t0) * 1e3,
        "inference": (t2 - t1) * 1e3,
        "postprocess": (t3 - t2) * 1e3,
    }
    return dets, times


def cmd_infer(args) -> int:
    from .graph import build_graph
    from .io_formats import DumpDetection, read_ppm, read_weights, write_detections

    with open(args.image, "rb") as fh:
        image = read_ppm(fh.read())
    graph = build_graph(args.variant, num_classes=args.nc)
    if args.weights:
        with open(args.weights, "rb") as fh:
            graph.load_state(read_weights(fh.read()))
        weight_desc = args.weights
    else:
        graph.init_random(args.seed)
        weight_desc = f"random-init (seed {args.seed}, not trained)"

    dets, times = _run_pipeline(graph, image, args.size, args.conf, args.iou)
    dump = [
        DumpDetection(
            image_id=args.image_id,
            category_id=d.class_id,
            bbox=(d.box[0], d.box[1], d.box[2] - d.box[0], d.box[3] - d.box[1]),
            score=d.score,
        )
        for d in dets
    ]
    text = write_detections(dump)  # before opening --out, so a refusal leaves no file
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)

    if args.format == "json":
        record = {
            "schema": "y11.infer/1",
            "image": args.image,
            "image_size": [image.w, image.h],
            "variant": graph.variant.name,
            "weights": weight_desc,
            "detections": len(dets),
            "conf": args.conf,
            "iou": args.iou,
            "out": args.out,
            "times_ms": {k: round(v, 3) for k, v in times.items()},
        }
        print(json.dumps(record))
    else:
        print(f"image: {args.image} ({image.w}x{image.h})")
        print(f"model: variant {graph.variant.name}, {graph.num_classes} classes, weights: {weight_desc}")
        print(f"detections: {len(dets)} (conf >= {args.conf}, nms iou {args.iou})")
        print(
            "times: preprocess {preprocess:.1f} ms, inference {inference:.1f} ms, "
            "postprocess {postprocess:.1f} ms".format(**times)
        )
        print(f"wrote: {args.out}")
    return 0


@gc_paused  # the record tuples below are as acyclic as what the readers parse
def cmd_eval(args) -> int:
    from .io_formats import FormatError, read_annotations, read_detections
    from .metrics import evaluate

    with open(args.detections, "r", encoding="utf-8") as fh:
        dets = read_detections(fh.read())
    with open(args.annotations, "r", encoding="utf-8") as fh:
        anns = read_annotations(fh.read())
    image_ids = {image.id for image in anns.images}
    for k, d in enumerate(dets):
        if d.image_id not in image_ids:
            raise FormatError(f"detections: record {k} has image_id {d.image_id}, "
                              "which is not an image in the annotations")

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
    report = evaluate(det_tuples, gt_tuples, operating_conf=args.conf)

    names = {c.id: c.name for c in anns.categories}
    rows = []  # (class id, name, AP@0.50, AP mean over the sweep)
    for cid in report.class_ids:
        ap, n = report.ap[cid], len(report.thresholds)
        ap_mean = None if ap[0.5] is None else sum(ap[t] for t in report.thresholds) / n
        rows.append((cid, names.get(cid, str(cid)), ap[0.5], ap_mean))
    if args.format == "json":
        record = {
            "schema": "y11.eval/1",
            "thresholds": report.thresholds,
            "map50": report.map50,
            "map5095": report.map5095,
            "precision": report.precision,
            "recall": report.recall,
            "f1": report.f1,
            "operating_conf": report.operating_conf,
            "per_class": {
                str(cid): {"name": name, "ap50": ap50, "ap_mean": ap_mean}
                for cid, name, ap50, ap_mean in rows
            },
        }
        print(json.dumps(record))
    else:
        print(f"{'class':>6}  {'name':<16} {'AP@0.50':>8}  {'AP mean':>8}")
        for cid, name, ap50, ap_mean in rows:
            if ap50 is None:
                print(f"{cid:>6}  {name:<16} {'n/a':>8}  {'n/a':>8}")
            else:
                print(f"{cid:>6}  {name:<16} {ap50:>8.4f}  {ap_mean:>8.4f}")
        print(f"mAP@0.50: {report.map50:.6f}")
        print(f"mAP@[0.50:0.95]: {report.map5095:.6f}")
        print(
            f"P/R/F1 @conf {report.operating_conf}: "
            f"{report.precision:.4f} / {report.recall:.4f} / {report.f1:.4f}"
        )
    return 0


def cmd_bench(args) -> int:
    import numpy as np

    from .graph import build_graph
    from .tensor import Tensor

    graph = build_graph(args.variant).init_random(0)
    rng = np.random.default_rng(0)
    # Synthetic workload: a non-square noise frame so the letterbox phase does
    # real resizing and padding.
    src_h, src_w = (args.size * 3) // 4, args.size
    image = Tensor(rng.random((1, 3, src_h, src_w), dtype=np.float32))

    samples: dict[str, list[float]] = {"preprocess": [], "inference": [], "postprocess": []}
    for i in range(args.warmup + args.runs):
        _, times = _run_pipeline(graph, image, args.size, _CONF, _IOU)
        if i >= args.warmup:
            for phase, ms in times.items():
                samples[phase].append(ms)

    # Per-phase latency statistics in milliseconds over the timed runs.
    phases = {
        phase: {
            "mean_ms": float(np.mean(vals)),
            "std_ms": float(np.std(vals)),
            "min_ms": float(np.min(vals)),
            "max_ms": float(np.max(vals)),
        }
        for phase, vals in samples.items()
    }
    if args.format == "json":
        record = {
            "schema": "y11.bench/1",
            "variant": args.variant,
            "device": "CPU",
            "resolution": args.size,
            "runs": args.runs,
            "phases": {
                phase: {key: round(v, 3) for key, v in stats.items()}
                for phase, stats in phases.items()
            },
        }
        print(json.dumps(record))
    else:
        print(f"variant {args.variant} @ {args.size}x{args.size}, device CPU, "
              f"{args.runs} runs (+{args.warmup} warmup)")
        print(f"{'phase':<12} {'mean ms':>10} {'std':>8} {'min':>10} {'max':>10}")
        for phase, s in phases.items():
            print(f"{phase:<12} {s['mean_ms']:>10.2f} {s['std_ms']:>8.2f} "
                  f"{s['min_ms']:>10.2f} {s['max_ms']:>10.2f}")
    return 0


def cmd_summary(args) -> int:
    from .graph import build_graph

    graph = build_graph(args.variant, num_classes=args.nc)
    rows = graph.layer_summary(args.size)
    total_params = graph.count_params()
    gflops = graph.count_flops(args.size)

    if args.format == "json":
        record = {
            "schema": "y11.summary/1",
            "variant": args.variant,
            "input_size": args.size,
            "num_classes": args.nc,
            "layers": rows,
            "total_params": total_params,
            "gflops": gflops,
        }
        print(json.dumps(record))
    else:
        print(f"{'idx':>4} {'kind':<12} {'from':<12} {'output':<20} {'params':>12}")
        for row in rows:
            shape = "x".join(str(v) for v in row["output_shape"])
            print(
                f"{row['index']:>4} {row['kind']:<12} {str(row['from']):<12} "
                f"{shape:<20} {row['params']:>12,}"
            )
        print(f"variant {args.variant} @ {args.size}: "
              f"{total_params:,} params, {gflops:.2f} GFLOPs")

    if args.csv:
        lines = ["variant,params,gflops"]
        for name in ("n", "s", "m", "l", "x"):
            g = build_graph(name, num_classes=args.nc)
            lines.append(f"{name},{g.count_params()},{g.count_flops(args.size):.4f}")
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        if args.format == "text":
            print(f"wrote: {args.csv}")
    return 0


def _apply_thread_cap() -> None:
    threads = os.environ.get("Y11_THREADS")
    if threads:
        if not (threads.isascii() and threads.isdigit() and int(threads) > 0):
            raise UsageError(f"Y11_THREADS must be a positive integer, got {threads!r}")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            os.environ[var] = threads


def main(argv=None) -> int:
    parser = build_parser()
    try:
        _apply_thread_cap()
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # FormatError subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

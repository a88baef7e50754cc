#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the y11 engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the engine in `src/` of that
checkout. It generates the workload's inputs from the seed (perfbench/gen.py,
in a child process), sets the model up several times, checks the probe image's
head tensors, then runs operations in a closed loop with one caller for S
seconds and checks every output. With --trace 0 the last line of stdout holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics from
spans (see spans.py), taken on every other operation so that the operations in
between measure the tracing overhead. The line before it is a full report:
environment, input digests, failures, counts and reconciliation checks.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import common  # imports no numpy

HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 15
# Traced per-layer ms must sum to the untraced graph.forward ms within this share.
FORWARD_MS_BOUND = 0.10
# "Sparse" candidates per image on detect-n640: tens to low hundreds.
SPARSE_BAND = (10.0, 400.0)

CONV_KINDS = ("pointwise", "dense", "depthwise")
TENSOR_FUNCTIONS = ("silu", "maxpool2d", "concat_channels", "split_channels",
                    "upsample_nearest2x", "softmax_lastaxis")
BLOCKS = ("ConvBlock", "C3K2", "SPPF", "C2PSA")
LAYERS = 24
COMPUTE_LAYERS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 16, 17, 19, 20, 22, 23)

END_TO_END = [
    ("images_per_s", "1/s", "higher"),
    ("latency_ms.p50", "ms", "lower"),
    ("dets_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def per_layer_specs() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, where): `where` is the workload kind that must
    produce the metric ("detect", "eval" or "all"); elsewhere it reads 0."""
    specs = []
    for kind in CONV_KINDS:
        base = f"tensor.conv2d.{kind}"
        specs += [(f"{base}.ms", "ms", "lower", "detect"), (f"{base}.calls", "count", "lower", "detect"),
                  (f"{base}.gflops_per_s", "GFLOP/s", "higher", "detect"),
                  (f"{base}.mb_computed", "MB", "lower", "detect")]
    for fn in TENSOR_FUNCTIONS:
        specs += [(f"tensor.{fn}.ms", "ms", "lower", "detect"),
                  (f"tensor.{fn}.calls", "count", "lower", "detect")]
    specs += [(f"blocks.{b}.self_ms", "ms", "lower", "detect") for b in BLOCKS]
    specs += [("graph.forward.ms", "ms", "lower", "detect"),
              ("graph.forward.gflops_per_s", "GFLOP/s", "higher", "detect")]
    specs += [(f"graph.layer{i}.ms", "ms", "lower", "detect") for i in range(LAYERS)]
    specs += [(f"graph.layer{i}.gflops_per_s", "GFLOP/s", "higher", "detect") for i in COMPUTE_LAYERS]
    specs += [("graph.load_state.ms", "ms", "lower", "all")]
    specs += [(f"postprocess.{f}.ms", "ms", "lower", "detect")
              for f in ("letterbox", "decode_head", "nms", "unletterbox")]
    specs += [("postprocess.candidates", "count", "lower", "detect"),
              ("postprocess.kept", "count", "lower", "detect"),
              ("postprocess.nms.keep_ratio", "ratio", "lower", "detect")]
    specs += [(f"metrics.{f}.ms", "ms", "lower", "eval")
              for f in ("evaluate", "match_detections", "average_precision")]
    specs += [("metrics.match_detections.calls", "count", "lower", "eval"),
              ("metrics.iou.calls", "count", "lower", "eval")]
    specs += [("io_formats.read_ppm.ms", "ms", "lower", "detect"),
              ("io_formats.read_weights.ms", "ms", "lower", "all"),
              ("io_formats.write_detections.ms", "ms", "lower", "detect"),
              ("io_formats.read_detections.ms", "ms", "lower", "eval"),
              ("io_formats.read_annotations.ms", "ms", "lower", "eval")]
    specs += [("trace.images_per_s.untraced", "1/s", "higher", "all"),
              ("trace.images_per_s.traced", "1/s", "higher", "all"),
              ("trace.overhead.images_per_s", "1/s", "higher", "all")]
    return specs


@dataclass
class OpRecord:
    index: int
    traced: bool
    latency_s: float
    out: object = None
    error: str | None = None


def environment(blas_threads: int) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": None, "version": None}
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "git_commit": _git_commit(),
    }


def _git_commit() -> str | None:
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def generate(cfg: dict, seed: int, work: Path, smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "gen.py"), "--workload", cfg["name"],
           "--seed", str(seed), "--out", str(work)] + (["--smoke"] if smoke else [])
    subprocess.run(cmd, check=True, timeout=300)
    return json.loads((work / "manifest.json").read_text(encoding="utf-8"))


def measure(cfg: dict, manifest: dict, work: Path, seconds: float, traced_run: bool) -> dict:
    import stats
    import spans
    import workloads

    wl = workloads.make(cfg, work, manifest)
    tracer = spans.Tracer() if traced_run else None
    wl.tracer = tracer
    failures: list[str] = []
    attempted = failed = 0

    setup_s: list[float] = []
    setup_repeats = 1 if cfg.get("smoke") else SETUP_REPEATS

    def set_up() -> None:
        gc.collect()
        restore = None
        if traced_run:
            tracer.op = -1
            restore = spans.install(tracer)
        t0 = perf_counter()
        try:
            wl.setup()
        finally:
            setup_s.append(perf_counter() - t0)
            if restore:
                restore()

    set_up()

    if cfg["kind"] == "detect":
        attempted += 1
        try:
            reason = wl.probe()
        except Exception:
            reason = traceback.format_exc(limit=3)
        if reason:
            failed += 1
            failures.append(f"probe: {reason}")

    def run_op(i: int, traced: bool) -> OpRecord:
        # Start every operation from a collected heap, so garbage left by
        # earlier operations is not charged to this one at a random point.
        gc.collect()
        restore = None
        if traced:
            tracer.op = i
            restore = spans.install(tracer)
        t0 = perf_counter()
        try:
            out, error = wl.op(i, traced), None
        except Exception:
            out, error = None, traceback.format_exc(limit=3)
        latency = perf_counter() - t0
        if restore:
            restore()
        return OpRecord(i, traced, latency, out, error)

    records = [run_op(i, False) for i in range(wl.warmup)]
    timed: list[OpRecord] = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(timed) < 2:
        i = wl.warmup + len(timed)
        timed.append(run_op(i, traced_run and len(timed) % 2 == 1))
        # The other set-ups are spread evenly over the run, outside the timed
        # operations, so that setup_s samples the machine over the same span
        # of time as the operations do rather than in one short burst.
        due = seconds * len(setup_s) / setup_repeats
        if len(setup_s) < setup_repeats and perf_counter() - start >= due:
            set_up()
    while len(setup_s) < setup_repeats:
        set_up()
    records += timed

    for rec in records:
        attempted += 1
        reason = rec.error
        if reason is None:
            try:
                reason = wl.check(rec.out)
            except Exception:
                reason = traceback.format_exc(limit=3)
        if reason:
            rec.error = reason
            failed += 1
            failures.append(f"op {rec.index}: {reason}")

    def throughput(recs) -> tuple[float, float]:
        # (images/s, detections/s) over these operations; failed ones add time only.
        images = dets = 0
        for r in recs:
            if r.error is None:
                n_img, n_det = wl.units(r.out)
                images += n_img
                dets += n_det
        elapsed = sum(r.latency_s for r in recs)
        return images / elapsed, dets / elapsed

    ok = [r for r in timed if r.error is None]
    report: dict = {
        "timed_ops": len(timed),
        "warmup_ops": wl.warmup,
        "latency_samples": len([r for r in timed if not r.traced]),
    }
    if cfg["kind"] == "detect" and ok:
        cands = sum(r.out.candidates for r in ok) / len(ok)
        report["candidates_per_image"] = cands
        report["kept_per_image"] = sum(len(r.out.kept) for r in ok) / len(ok)
        report["cells_per_image"] = ok[0].out.cells
        if cfg["conf"] >= 0.25:
            report["sparse_band"] = {"band": SPARSE_BAND,
                                     "ok": SPARSE_BAND[0] <= cands <= SPARSE_BAND[1]}
        else:
            report["all_cells_candidates"] = all(r.out.candidates == r.out.cells for r in ok)

    plain = [r for r in timed if not r.traced]
    latencies_ms = [r.latency_s * 1e3 for r in plain]
    report["latency_ms"] = {"p50": stats.median(latencies_ms),
                            "p90": stats.percentile(latencies_ms, 90),
                            "samples": len(latencies_ms),
                            "all": [round(v, 3) for v in latencies_ms]}
    values: dict[str, float] = {}
    missing: list[str] = []
    reconcile: dict = {}
    if not traced_run:
        images_per_s, dets_per_s = throughput(timed)
        values = {
            "images_per_s": images_per_s,
            "latency_ms.p50": stats.median(latencies_ms),
            "dets_per_s": dets_per_s,
            "setup_s": stats.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        values, missing, reconcile = layer_values(cfg, wl, tracer, timed, throughput)
        units = {name: unit for name, unit, _, _ in per_layer_specs()}
    report["setup_s_samples"] = setup_s
    report["reconcile"] = reconcile
    report["missing"] = missing
    # The exact FLOP reconciliation gates `correct`; the timing one is reported only.
    correct = not failures and reconcile.get("flops", {}).get("ok", True)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
        "report": report,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def layer_values(cfg, wl, tracer, timed, throughput):
    """Per-layer metric values from the traced operations' spans."""
    import stats
    import spans

    traced_ops = [r for r in timed if r.traced and r.error is None]
    plain_ops = [r for r in timed if not r.traced and r.error is None]
    op_ids = {r.index for r in traced_ops}
    n_ops = max(1, len(traced_ops))
    self_s = spans.self_times(tracer.spans)

    per_op: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    calls: Counter = Counter()
    busy: Counter = Counter()
    flops: Counter = Counter()
    nbytes: Counter = Counter()
    setup_spans: dict[str, list[float]] = defaultdict(list)
    layer_flop_order: list[float] = []
    first_op = min(op_ids) if op_ids else None
    for rec, own in zip(tracer.spans, self_s):
        name, start, end, _, op, info = rec
        if op == -1:
            setup_spans[name].append((end - start) * 1e3)
            continue
        if op not in op_ids:
            continue
        key = name
        if name == "tensor.conv2d":
            key = f"tensor.conv2d.{info[0]}"
            flops[key] += info[1]
            nbytes[key] += info[2]
        elif name.startswith("graph.layer") and info is not None:
            flops[key] += info
            if op == first_op:
                layer_flop_order.append(info)
        per_op[key][op] += (own if name.startswith("blocks.") else end - start) * 1e3
        calls[key] += 1
        busy[key] += end - start

    def per_op_median(key: str) -> float:
        return stats.median([per_op[key].get(i, 0.0) for i in sorted(op_ids)])

    forward_ms = [r.out.forward_s * 1e3 for r in plain_ops] if cfg["kind"] == "detect" else []
    ok_ops = traced_ops + plain_ops
    values: dict[str, float] = {}
    missing: list[str] = []
    for name, _, _, where in per_layer_specs():
        if where not in ("all", cfg["kind"]):
            values[name] = 0.0
            continue
        base, stat = name.rsplit(".", 1)
        if name == "graph.forward.ms":
            value = stats.median(forward_ms) if forward_ms else None
        elif name == "graph.forward.gflops_per_s":
            value = (wl.model.count_flops(cfg["size"]) / (stats.median(forward_ms) / 1e3)
                     if forward_ms else None)
        elif name in ("graph.load_state.ms", "io_formats.read_weights.ms"):
            value = stats.median(setup_spans[base]) if setup_spans[base] else None
        elif name == "postprocess.candidates":
            value = sum(r.out.candidates for r in ok_ops) / len(ok_ops) if ok_ops else None
        elif name == "postprocess.kept":
            value = sum(len(r.out.kept) for r in ok_ops) / len(ok_ops) if ok_ops else None
        elif name == "postprocess.nms.keep_ratio":
            total = sum(r.out.candidates for r in ok_ops)
            value = sum(len(r.out.kept) for r in ok_ops) / total if total else None
        elif name == "metrics.iou.calls":
            total = sum(tracer.counts[(i, "metrics.iou")] for i in op_ids)
            value = total / n_ops if total else None
        elif base.startswith("trace."):
            untraced, traced = throughput(plain_ops)[0], throughput(traced_ops)[0]
            value = {"untraced": untraced, "traced": traced, "images_per_s": traced - untraced}[stat]
        elif calls[base] == 0:
            value = None
        elif stat in ("ms", "self_ms"):
            value = per_op_median(base)
        elif stat == "calls":
            value = calls[base] / n_ops
        elif stat == "gflops_per_s":
            value = flops[base] / busy[base] / 1e9
        elif stat == "mb_computed":
            value = nbytes[base] / n_ops / 1e6
        else:
            raise ValueError(f"no rule for per-layer metric {name!r}")
        if value is None:
            missing.append(name)
        else:
            values[name] = value

    reconcile: dict = {}
    if cfg["kind"] == "detect" and op_ids:
        total = 0.0
        for f in layer_flop_order:
            total += f
        reconcile["flops"] = {"layers_gflops": total / 1e9,
                              "count_flops": wl.model.count_flops(cfg["size"]),
                              "ok": total / 1e9 == wl.model.count_flops(cfg["size"])}
        layer_sum = stats.median([
            sum(per_op[f"graph.layer{k}"].get(i, 0.0) for k in range(LAYERS)) for i in sorted(op_ids)
        ])
        if forward_ms:
            ratio = layer_sum / stats.median(forward_ms)
            reconcile["forward_ms"] = {"layers_sum_ms": layer_sum, "forward_ms": stats.median(forward_ms),
                                       "ratio": ratio, "bound": FORWARD_MS_BOUND,
                                       "ok": abs(ratio - 1.0) <= FORWARD_MS_BOUND}
    reconcile["conv_kinds_seen"] = sorted(
        {rec[spans.INFO][0] for rec in tracer.spans if rec[spans.NAME] == "tensor.conv2d"})
    return values, missing, reconcile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="y11 engine benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    blas_threads = common.cap_blas_threads()
    common.use_engine_source()
    cfg = common.workload_config(args.workload, args.smoke)
    cfg["smoke"] = args.smoke

    work = common.ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        manifest = generate(cfg, args.seed, work, args.smoke)
        result = measure(cfg, manifest, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in result["failures"]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    report = {
        "schema": "perfbench.report/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": {k: v for k, v in cfg.items() if k != "name"},
        "environment": environment(blas_threads),
        "inputs": {"digest": manifest["digest"], "files": manifest["files"]},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_ratio": result["failed"] / result["attempted"],
        "failures": result["failures"],
        **result["report"],
        "metrics": result["metrics"],
    }
    print(json.dumps(report))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

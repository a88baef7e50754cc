"""Workload table and engine location shared by the generator and the runner.

Importing this module does not import numpy, so the runner can cap the BLAS
thread pools first.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE_SRC = ROOT / "src"

# The deployed model: one fixed seeded weights container per variant. The
# workload seed selects the images (or the evaluation set), not the model, so
# every seed measures the same network on a different input stream.
MODEL_SEED = 0
PROBE_SEED = 1_000_003
NUM_CLASSES = 80
REG_MAX = 16
# One BLAS thread. On a shared machine a second thread mostly waits for its
# contended sibling CPU: over 5 seeds of detect-n640 on a shared 2-vCPU Xeon
# VM, two threads were ~5% faster but doubled the run-to-run spread of
# images_per_s (IQR/median 16% against 7%).
BLAS_THREADS = 1
THRESHOLDS = [round(0.5 + 0.05 * i, 2) for i in range(10)]
OPERATING_CONF = 0.25

# BENCHMARK.json runs dense-n320 and eval-coco, which between them measure
# every layer. detect-n640 is the same pipeline at the deployment size with
# sparse candidates; run it by hand for claims about n@640.
#
# kind "detect": one operation is read_ppm -> letterbox -> forward ->
# decode_head -> nms -> unletterbox -> write_detections on one image.
# kind "eval": one operation is read_detections + read_annotations + evaluate.
WORKLOADS: dict[str, dict] = {
    "detect-n640": dict(kind="detect", variant="n", size=640, conf=0.25, iou=0.45, images=12),
    "dense-n320": dict(kind="detect", variant="n", size=320, conf=0.001, iou=0.45, images=12),
    "eval-coco": dict(kind="eval", variant="n", images=500, gts=7, dets=100),
}

# Tiny variants of the same workloads for the benchmark's own smoke test.
SMOKE: dict[str, dict] = {
    "detect-n640": dict(size=64, images=3),
    "dense-n320": dict(size=64, images=3),
    "eval-coco": dict(images=20),
}


def workload_config(name: str, smoke: bool) -> dict:
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    cfg = dict(WORKLOADS[name], name=name)
    if smoke:
        cfg.update(SMOKE[name])
    return cfg


def use_engine_source() -> None:
    """Put the checkout's engine source first on sys.path.

    The benchmark measures the engine in this checkout and nothing else, so a
    checkout without `src/y11` is an error, not a fallback to an installed copy.
    """
    if not (ENGINE_SRC / "y11" / "__init__.py").is_file():
        print(f"perfbench: engine source not found under {ENGINE_SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ENGINE_SRC))
    import y11

    if Path(y11.__file__).resolve().parent != (ENGINE_SRC / "y11").resolve():
        print(f"perfbench: imported y11 from {y11.__file__}, not the checkout", file=sys.stderr)
        raise SystemExit(2)


def cap_blas_threads() -> int:
    """Pin BLAS/OpenMP pools to BLAS_THREADS (never more than nproc); call before numpy loads."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS

"""The benchmark's own tests: generator determinism, order statistics,
self-time arithmetic, the output checks, and a tiny smoke run of every
workload. Run with `python3 -m pytest perfbench/tests`."""
from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.use_engine_source()

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from y11.postprocess import Detection  # noqa: E402

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(common.WORKLOADS))
def test_generator_is_byte_deterministic(tmp_path, name):
    cfg = common.workload_config(name, smoke=True)
    first = gen.generate(cfg, 5, tmp_path / "a")
    second = gen.generate(cfg, 5, tmp_path / "b")
    other = gen.generate(cfg, 6, tmp_path / "c")
    assert first == second
    for file in first["files"]:
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()
    assert other["digest"] != first["digest"]
    # The model is fixed; the seed changes only the image stream or evaluation set.
    assert other["files"]["weights.y11w"] == first["files"]["weights.y11w"]


def test_weights_container_round_trips_through_the_engine():
    from y11.io_formats import read_weights

    entries = gen.model_entries([("a.weight", (2, 1, 3, 3)), ("a.gamma", (2,))], seed=3)
    back = read_weights(gen.weights_bytes(entries))
    assert [n for n, _ in back] == ["a.weight", "a.gamma"]
    for (_, want), (_, got) in zip(entries, back):
        assert got.dtype == want.dtype and (got == want).all()


def test_median_and_quartiles():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    values = [0.7, 0.1, 0.4, 0.9, 0.3, 0.8, 0.2, 0.6, 0.5, 1.0]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles([1.0, 2.0]) == (0.75, 1.5, 2.25)
    assert stats.percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.quartiles([1.0])


def test_self_time_subtracts_the_union_of_overlapping_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap, [8, 12] runs past
    # the parent's end; the grandchild [2, 3] lies inside a child.
    recs = [
        ["p", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["b", 3.0, 6.0, 0, 0, None],
        ["c", 8.0, 12.0, 0, 0, None],
        ["g", 2.0, 3.0, 1, 0, None],
    ]
    own = spans.self_times(recs)
    assert own[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2:] == pytest.approx([3.0, 4.0, 1.0])
    assert spans.covered([], 0.0, 1.0) == 0.0
    assert spans.covered([(0.0, 1.0), (0.2, 0.5)], 0.0, 1.0) == pytest.approx(1.0)


def test_tracer_records_nesting_and_restores_the_engine():
    from y11 import blocks, metrics

    original_conv, original_iou = blocks.conv2d, metrics.iou
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert blocks.conv2d is not original_conv
        tracer.op = 7
        metrics.evaluate([(1, 0, 0.9, (0, 0, 2, 2))], [(1, 0, (0, 0, 2, 2))], [0.5], 0.25)
    finally:
        restore()
    assert blocks.conv2d is original_conv and metrics.iou is original_iou
    assert "forward" not in blocks.C3K2.__dict__
    names = [rec[spans.NAME] for rec in tracer.spans]
    assert names[0] == "metrics.evaluate"
    assert all(rec[spans.PARENT] == 0 for rec in tracer.spans[1:])
    assert tracer.counts[(7, "metrics.iou")] == 2  # one per match_detections call


def _detect_checker(tmp_path):
    cfg = common.workload_config("detect-n640", smoke=True)
    manifest = gen.generate(cfg, 1, tmp_path)
    return workloads.make(cfg, tmp_path, manifest)


def test_detection_check_accepts_valid_and_rejects_broken_output(tmp_path):
    wl = _detect_checker(tmp_path)
    kept = [Detection(3, 0.9, (10.0, 10.0, 50.0, 50.0)), Detection(3, 0.8, (100.0, 100.0, 120.0, 130.0))]
    text = ('[\n  {"image_id": 4, "category_id": 3, "bbox": [10.0, 10.0, 40.0, 40.0], "score": 0.9},\n'
            '  {"image_id": 4, "category_id": 3, "bbox": [100.0, 100.0, 20.0, 30.0], "score": 0.8}\n]\n')
    good = workloads.DetectOut(4, (200, 200), 84, 10, kept, text, 0.0)
    assert wl.check(good) is None
    overlapping = [kept[0], Detection(3, 0.8, (12.0, 12.0, 50.0, 50.0))]
    assert "IoU" in wl.check(workloads.DetectOut(4, (200, 200), 84, 10, overlapping, text, 0.0))
    outside = workloads.DetectOut(4, (100, 100), 84, 10, kept, text, 0.0)
    assert "outside" in wl.check(outside)
    swapped = text.replace('"score": 0.9', '"score": 0.7')
    assert "order" in wl.check(workloads.DetectOut(4, (200, 200), 84, 10, kept, swapped, 0.0))


def test_head_comparison_flags_drift():
    ref = [{"shape": [1, 2, 1, 1], "channel_mean": [1.0, -20.0], "samples": [1.0, -20.0]}]
    near = [{"shape": [1, 2, 1, 1], "channel_mean": [1.0005, -20.01], "samples": [1.0, -20.0]}]
    far = [{"shape": [1, 2, 1, 1], "channel_mean": [1.0, -20.5], "samples": [1.0, -20.0]}]
    assert workloads.compare_heads(near, ref) is None
    assert "channel_mean[1]" in workloads.compare_heads(far, ref)


def test_oracle_iou_matches_engine_iou():
    from y11.metrics import iou

    rng = __import__("numpy").random.default_rng(0)
    a = rng.uniform(0, 50, (20, 2))
    boxes = [(x, y, x + w, y + h) for (x, y), (w, h) in zip(a, rng.uniform(0.5, 30, (20, 2)))]
    matrix = oracle.pairwise_iou(boxes, boxes)
    for i, bi in enumerate(boxes):
        for j, bj in enumerate(boxes):
            assert matrix[i, j] == iou(bi, bj)


def test_benchmark_json_lists_the_runner_metrics():
    assert {m["name"] for m in BENCHMARK["workloads"]} <= set(common.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        spec[:3] for spec in run.per_layer_specs()
    ]


def _run(args, cwd=common.ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(common.WORKLOADS))
def test_smoke_run(name, trace):
    proc = _run(["--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3, report["failures"]
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert report["missing"] == []
    assert set(report["environment"]) >= {"python", "numpy", "blas", "blas_threads", "nproc", "cpu"}
    assert len(report["inputs"]["digest"]) == 64
    if trace and name != "eval-coco":
        assert report["reconcile"]["flops"]["ok"]
        assert result["metrics"]["tensor.conv2d.dense.calls"]["value"] > 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(["--workload", "detect-n640", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_bypassed_wrapper_is_reported_missing(tmp_path, monkeypatch):
    # A ConvBlock that calls the tensor kernels directly, as a refactor might,
    # leaves the rebound blocks.conv2d and blocks.silu without calls.
    from y11 import blocks, tensor

    def forward(self, x):
        y = tensor.conv2d(x, self.spec)
        if self.bn is not None:
            scale, shift = self.bn.scale_shift()
            y = tensor.Tensor._wrap(y.data * scale[None, :, None, None] + shift[None, :, None, None])
        return tensor.silu(y) if self.act == "silu" else y

    monkeypatch.setattr(blocks.ConvBlock, "forward", forward)
    monkeypatch.setattr(blocks.ConvBlock, "__call__", forward)
    cfg = dict(common.workload_config("detect-n640", smoke=True), smoke=True)
    result = run.measure(cfg, gen.generate(cfg, 1, tmp_path), tmp_path, 0.2, True)
    assert result["correct"]
    missing = result["report"]["missing"]
    assert {"tensor.silu.ms", "tensor.conv2d.dense.ms", "tensor.conv2d.pointwise.calls"} <= set(missing)
    assert "tensor.silu.ms" not in result["metrics"]
    assert result["metrics"]["tensor.maxpool2d.calls"]["value"] == 3

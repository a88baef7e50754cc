"""Command-line behavior: determinism, schemas, exit codes."""
import json
import os

import numpy as np
import pytest

from oracle_helpers import brute_force_map
from y11.cli import main
from y11.io_formats import DumpDetection, write_detections, write_weights
from y11.metrics import default_thresholds


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfer:
    def test_deterministic_outputs(self, small_ppm, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        code1, _, _ = run(capsys, "infer", str(small_ppm), "--size", "64", "--seed", "5",
                          "--out", str(out1))
        code2, _, _ = run(capsys, "infer", str(small_ppm), "--size", "64", "--seed", "5",
                          "--out", str(out2))
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_high_confidence_gives_empty_file(self, small_ppm, tmp_path, capsys):
        out = tmp_path / "empty.json"
        code, stdout, _ = run(capsys, "infer", str(small_ppm), "--size", "64",
                              "--conf", "0.999", "--out", str(out))
        assert code == 0
        assert out.read_text() == "[]\n"
        assert "detections: 0" in stdout

    def test_missing_image_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "infer", str(tmp_path / "nope.ppm"), "--size", "64")
        assert code == 2
        assert "error" in err.lower()

    def test_weights_file_loading(self, small_ppm, tmp_path, capsys):
        from y11.graph import build_graph

        graph = build_graph("n").init_random(9)
        wpath = tmp_path / "model.y11w"
        wpath.write_bytes(write_weights(graph.state_entries()))
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        for out in (out1, out2):
            code, stdout, _ = run(capsys, "infer", str(small_ppm), "--size", "64",
                                  "--weights", str(wpath), "--out", str(out))
            assert code == 0
            assert "model.y11w" in stdout
        assert out1.read_bytes() == out2.read_bytes()

    def test_truncated_weights_is_data_error(self, small_ppm, tmp_path, capsys):
        from y11.graph import build_graph

        payload = write_weights(build_graph("n").state_entries())
        wpath = tmp_path / "cut.y11w"
        wpath.write_bytes(payload[:-20])
        code, _, err = run(capsys, "infer", str(small_ppm), "--size", "64",
                           "--weights", str(wpath))
        assert code == 2 and "truncated" in err

    def test_negative_running_variance_is_data_error(self, small_ppm, tmp_path, capsys):
        from y11.graph import build_graph

        entries = build_graph("n").init_random(9).state_entries()
        entries = [(n, np.full_like(a, -1.0) if n == "layer0.var" else a) for n, a in entries]
        wpath = tmp_path / "negvar.y11w"
        wpath.write_bytes(write_weights(entries))
        out = tmp_path / "dets.json"
        code, stdout, err = run(capsys, "infer", str(small_ppm), "--size", "64",
                                "--weights", str(wpath), "--out", str(out))
        assert code == 2 and stdout == ""
        assert "layer0.var" in err and "variance" in err
        assert not out.exists()

    def test_nan_weights_is_data_error(self, small_ppm, tmp_path, capsys):
        from y11.graph import build_graph

        entries = build_graph("n").init_random(9).state_entries()
        entries = [(n, np.full_like(a, np.nan) if n == "layer23.box0.2.bias" else a)
                   for n, a in entries]
        wpath = tmp_path / "nanbias.y11w"
        wpath.write_bytes(write_weights(entries))
        out = tmp_path / "dets.json"
        code, stdout, err = run(capsys, "infer", str(small_ppm), "--size", "64",
                                "--weights", str(wpath), "--out", str(out))
        assert code == 2 and stdout == ""
        assert "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry,index,value,channel",
        [
            ("layer23.cls0.4.bias", 3, np.nan, 64 + 3),
            pytest.param("layer0.gamma", 0, np.inf, None,
                         marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
        ],
    )
    def test_non_finite_head_is_data_error(self, small_ppm, tmp_path, capsys, entry, index,
                                           value, channel):
        # Unchecked, the NaN bias drops every stride-8 cell and the Inf gamma
        # gives an empty list, both with exit 0. The fold at the first forward
        # refuses them before any head is decoded, naming the leaf and the
        # output channel that feeds head channel `channel`.
        from y11.graph import build_graph

        entries = [(n, a.copy()) for n, a in build_graph("n").init_random(9).state_entries()]
        for name, arr in entries:
            if name == entry:
                arr[index] = value
        wpath = tmp_path / "bad.y11w"
        wpath.write_bytes(write_weights(entries))
        out = tmp_path / "dets.json"
        code, stdout, err = run(capsys, "infer", str(small_ppm), "--size", "64", "--conf", "0.001",
                                "--weights", str(wpath), "--out", str(out))
        assert code == 2 and stdout == ""
        assert f"{entry.rsplit('.', 1)[0]}: weights fold to a non-finite" in err
        if channel is not None:
            assert f"output channel {channel - 4 * 16}" in err
        assert not out.exists()

    @pytest.mark.parametrize("entry, value", [("layer23.box0.2.bias", np.nan),
                                              ("layer0.weight", np.inf)])
    def test_non_finite_weights_name_the_leaf(self, small_ppm, tmp_path, capsys, entry, value):
        from y11.graph import build_graph

        entries = [(n, a.copy()) for n, a in build_graph("n").init_random(9).state_entries()]
        for name, arr in entries:
            if name == entry:
                arr.flat[0] = value
        wpath = tmp_path / "bad.y11w"
        wpath.write_bytes(write_weights(entries))
        out = tmp_path / "dets.json"
        code, stdout, err = run(capsys, "infer", str(small_ppm), "--size", "64",
                                "--weights", str(wpath), "--out", str(out))
        assert code == 2 and stdout == ""
        assert f"{entry.rsplit('.', 1)[0]}: weights fold to a non-finite" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_weights_reach_the_head_check(self, small_ppm, tmp_path, capsys):
        # Finite weights pass the fold check, but a 1e30 stem gamma overflows
        # the activations to inf and NaN by the heads.
        from y11.graph import build_graph

        entries = [(n, np.full_like(a, 1e30) if n == "layer0.gamma" else a)
                   for n, a in build_graph("n").init_random(9).state_entries()]
        wpath = tmp_path / "huge.y11w"
        wpath.write_bytes(write_weights(entries))
        out = tmp_path / "dets.json"
        code, stdout, err = run(capsys, "infer", str(small_ppm), "--size", "64", "--conf", "0.001",
                                "--weights", str(wpath), "--out", str(out))
        assert code == 2 and stdout == ""
        assert "head 0 (stride 8)" in err and "non-finite" in err
        assert not out.exists()

    def test_json_format_schema(self, small_ppm, tmp_path, capsys):
        code, stdout, _ = run(capsys, "infer", str(small_ppm), "--size", "64",
                              "--format", "json", "--out", str(tmp_path / "d.json"))
        assert code == 0
        record = json.loads(stdout)
        assert record["schema"] == "y11.infer/1"
        assert set(record["times_ms"]) == {"preprocess", "inference", "postprocess"}

    def test_config_file(self, small_ppm, tmp_path, capsys):
        out = tmp_path / "d.json"
        code, stdout, _ = run(capsys, "infer", str(small_ppm), "--size", "64",
                              "--nc", "5", "--out", str(out))
        assert code == 0
        assert "5 classes" in stdout

    def test_config_flag_is_gone(self, small_ppm, tmp_path, capsys):
        config = tmp_path / "model.cfg"
        config.write_text("variant = n\nnum_classes = 5\n")
        code, _, err = run(capsys, "infer", str(small_ppm), "--config", str(config))
        assert code == 1 and "--config" in err

    @pytest.mark.parametrize("command", ["infer", "summary"])
    @pytest.mark.parametrize("nc", ["0", "-3", "five"])
    def test_bad_nc_is_usage_error(self, small_ppm, command, nc, capsys):
        argv = [command, "--nc", nc] + ([str(small_ppm)] if command == "infer" else [])
        code, stdout, err = run(capsys, *argv)
        assert code == 1 and "--nc" in err and stdout == ""

    @pytest.mark.parametrize("command, flag", [("infer", "--seed"), ("bench", "--warmup")])
    def test_negative_seed_or_warmup_is_usage_error(self, small_ppm, command, flag, capsys):
        argv = [command, flag, "-1"] + ([str(small_ppm)] if command == "infer" else [])
        code, stdout, err = run(capsys, *argv)
        assert code == 1 and flag in err and stdout == ""


ANNS = {
    "images": [
        {"id": 0, "width": 200, "height": 200},
        {"id": 1, "width": 200, "height": 200},
    ],
    "annotations": [
        {"id": 1, "image_id": 0, "category_id": 0, "bbox": [10, 10, 20, 20]},
        {"id": 2, "image_id": 0, "category_id": 1, "bbox": [50, 50, 30, 20]},
        {"id": 3, "image_id": 1, "category_id": 0, "bbox": [100, 100, 25, 25]},
    ],
    "categories": [{"id": 0, "name": "cat"}, {"id": 1, "name": "dog"}],
}


def write_eval_fixture(tmp_path, dets):
    anns_path = tmp_path / "anns.json"
    anns_path.write_text(json.dumps(ANNS))
    dets_path = tmp_path / "dets.json"
    dets_path.write_text(write_detections(dets))
    return dets_path, anns_path


class TestEval:
    def test_perfect_detections(self, tmp_path, capsys):
        dets = [
            DumpDetection(a["image_id"], a["category_id"], tuple(a["bbox"]), 1.0)
            for a in ANNS["annotations"]
        ]
        dets_path, anns_path = write_eval_fixture(tmp_path, dets)
        code, stdout, _ = run(capsys, "eval", str(dets_path), str(anns_path),
                              "--format", "json")
        assert code == 0
        record = json.loads(stdout)
        assert record["schema"] == "y11.eval/1"
        assert record["map5095"] == pytest.approx(1.0, abs=1e-12)
        assert record["recall"] == pytest.approx(1.0, abs=1e-12)
        assert record["thresholds"] == default_thresholds()
        for row in record["per_class"].values():
            assert set(row) == {"name", "ap50", "ap_mean"}

    def test_empty_detections(self, tmp_path, capsys):
        dets_path, anns_path = write_eval_fixture(tmp_path, [])
        code, stdout, _ = run(capsys, "eval", str(dets_path), str(anns_path),
                              "--format", "json")
        assert code == 0
        record = json.loads(stdout)
        assert record["map5095"] == 0.0
        assert record["recall"] == 0.0

    def test_matches_brute_force_oracle(self, tmp_path, capsys):
        dets = [
            DumpDetection(0, 0, (11, 11, 20, 20), 0.9),
            DumpDetection(0, 0, (40, 40, 10, 10), 0.8),
            DumpDetection(0, 1, (52, 49, 28, 22), 0.7),
            DumpDetection(1, 0, (98, 102, 26, 24), 0.6),
            DumpDetection(1, 1, (0, 0, 10, 10), 0.5),
        ]
        dets_path, anns_path = write_eval_fixture(tmp_path, dets)
        code, stdout, _ = run(capsys, "eval", str(dets_path), str(anns_path),
                              "--format", "json")
        assert code == 0
        record = json.loads(stdout)

        det_tuples = [
            (d.image_id, d.category_id, d.score,
             (d.bbox[0], d.bbox[1], d.bbox[0] + d.bbox[2], d.bbox[1] + d.bbox[3]))
            for d in dets
        ]
        gt_tuples = [
            (a["image_id"], a["category_id"],
             (a["bbox"][0], a["bbox"][1],
              a["bbox"][0] + a["bbox"][2], a["bbox"][1] + a["bbox"][3]))
            for a in ANNS["annotations"]
        ]
        _, want = brute_force_map(det_tuples, gt_tuples, default_thresholds())
        assert record["map5095"] == pytest.approx(want, abs=1e-9)

    def test_text_table(self, tmp_path, capsys):
        dets = [DumpDetection(0, 0, (10, 10, 20, 20), 0.9)]
        dets_path, anns_path = write_eval_fixture(tmp_path, dets)
        code, stdout, _ = run(capsys, "eval", str(dets_path), str(anns_path))
        assert code == 0
        assert "cat" in stdout and "dog" in stdout
        lines = stdout.splitlines()
        assert lines[0].split() == ["class", "name", "AP@0.50", "AP", "mean"]
        assert any(line.startswith("mAP@0.50: ") for line in lines)
        assert any(line.startswith("mAP@[0.50:0.95]: ") for line in lines)
        assert "P/R/F1" in stdout

    def test_text_table_marks_a_class_without_ground_truth(self, tmp_path, capsys):
        dets = [DumpDetection(0, 0, (10, 10, 20, 20), 0.9), DumpDetection(0, 2, (1, 1, 5, 5), 0.8)]
        dets_path, anns_path = write_eval_fixture(tmp_path, dets)
        anns = dict(ANNS, categories=ANNS["categories"] + [{"id": 2, "name": "bird"}])
        anns_path.write_text(json.dumps(anns))
        code, stdout, _ = run(capsys, "eval", str(dets_path), str(anns_path))
        assert code == 0
        assert f"{2:>6}  {'bird':<16} {'n/a':>8}  {'n/a':>8}" in stdout.splitlines()

    def test_bad_sweep_is_usage_error(self, tmp_path, capsys):
        dets_path, anns_path = write_eval_fixture(tmp_path, [])
        code, _, err = run(capsys, "eval", str(dets_path), str(anns_path),
                           "--sweep", "bananas")
        assert code == 1 and "sweep" in err

    def test_non_object_annotations_is_data_error(self, tmp_path, capsys):
        dets_path, anns_path = write_eval_fixture(tmp_path, [])
        anns_path.write_text("5")
        code, stdout, err = run(capsys, "eval", str(dets_path), str(anns_path))
        assert code == 2 and "top-level value must be an object" in err and stdout == ""

    def test_malformed_detections_is_data_error(self, tmp_path, capsys):
        anns_path = tmp_path / "anns.json"
        anns_path.write_text(json.dumps(ANNS))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "eval", str(bad), str(anns_path))
        assert code == 2 and "JSON" in err

    def test_non_finite_or_negative_boxes_are_data_errors(self, tmp_path, capsys):
        dets_path, anns_path = write_eval_fixture(tmp_path, [])
        good_det = {"image_id": 0, "category_id": 0, "bbox": [10, 10, 20, 20], "score": 0.9}
        for bbox, message in [("[NaN, 10, 20, 20]", "non-finite"),
                              ("[10, 10, Infinity, 20]", "non-finite"),
                              ("[10, 10, 20, -1]", "negative")]:
            dets_path.write_text("[" + json.dumps(good_det).replace("[10, 10, 20, 20]", bbox) + "]")
            code, stdout, err = run(capsys, "eval", str(dets_path), str(anns_path))
            assert code == 2 and message in err and stdout == ""

        dets_path.write_text("[]")
        bad_ann = dict(ANNS["annotations"][0], bbox=[float("nan"), 1, float("inf"), 2])
        anns_path.write_text(json.dumps(dict(ANNS, annotations=[bad_ann])))  # NaN, Infinity
        code, stdout, err = run(capsys, "eval", str(dets_path), str(anns_path))
        assert code == 2 and "non-finite" in err and stdout == ""

    def test_detection_on_an_unlisted_image_is_data_error(self, tmp_path, capsys):
        dets = [DumpDetection(0, 0, (10, 10, 20, 20), 0.9), DumpDetection(99, 0, (1, 1, 5, 5), 0.5)]
        dets_path, anns_path = write_eval_fixture(tmp_path, dets)
        code, stdout, err = run(capsys, "eval", str(dets_path), str(anns_path))
        assert code == 2 and stdout == ""
        assert "record 1 has image_id 99" in err


class TestBench:
    def test_report_schema_and_counts(self, capsys):
        code, stdout, _ = run(capsys, "bench", "--variant", "n", "--size", "64",
                              "--runs", "3", "--warmup", "1", "--format", "json")
        assert code == 0
        record = json.loads(stdout)
        assert record["schema"] == "y11.bench/1"
        assert record["runs"] == 3
        assert record["device"] == "CPU"
        assert set(record["phases"]) == {"preprocess", "inference", "postprocess"}
        for stats in record["phases"].values():
            assert set(stats) == {"mean_ms", "std_ms", "min_ms", "max_ms"}
            assert stats["min_ms"] >= 0.0
            assert stats["min_ms"] <= stats["mean_ms"] <= stats["max_ms"]

    def test_field_set_stable_across_runs(self, capsys):
        def fields(argv):
            code, stdout, _ = run(capsys, *argv)
            assert code == 0
            record = json.loads(stdout)
            return {(k, tuple(sorted(v)) if isinstance(v, dict) else None) for k, v in record.items()}

        argv = ["bench", "--variant", "n", "--size", "64", "--runs", "1", "--format", "json"]
        assert fields(argv) == fields(argv)

    def test_warmup_excluded_from_statistics(self, capsys):
        # One measured run after a warmup run: if the warmup sample leaked
        # into the stats the std would almost surely be nonzero.
        code, stdout, _ = run(capsys, "bench", "--variant", "n", "--size", "64",
                              "--runs", "1", "--warmup", "1", "--format", "json")
        assert code == 0
        record = json.loads(stdout)
        assert record["runs"] == 1
        for stats in record["phases"].values():
            assert stats["std_ms"] == 0.0
            assert stats["min_ms"] == stats["mean_ms"] == stats["max_ms"]

    def test_inference_dominates_preprocess(self, capsys):
        code, stdout, _ = run(capsys, "bench", "--variant", "n", "--size", "96",
                              "--runs", "2", "--warmup", "0", "--format", "json")
        assert code == 0
        record = json.loads(stdout)
        assert (record["phases"]["inference"]["mean_ms"]
                > record["phases"]["preprocess"]["mean_ms"])

    def test_bad_runs_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bench", "--runs", "0", "--size", "64")
        assert code == 1 and "runs" in err

    def test_bad_size_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "bench", "--size", "100")
        assert code == 1

    @pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--conf", "0.5"), ("--iou", "0.5")])
    def test_fixed_settings_are_not_flags(self, capsys, flag, value):
        # bench always times seed-0 weights at infer's default conf and IoU
        code, stdout, err = run(capsys, "bench", "--size", "64", flag, value)
        assert code == 1 and "unrecognized arguments" in err and flag in err and stdout == ""


class TestSummary:
    def test_totals_match_library(self, capsys):
        from y11.graph import build_graph

        code, stdout, _ = run(capsys, "summary", "--variant", "n", "--format", "json")
        assert code == 0
        record = json.loads(stdout)
        g = build_graph("n")
        assert record["total_params"] == g.count_params()
        assert record["gflops"] == pytest.approx(g.count_flops(640))
        assert sum(r["params"] for r in record["layers"]) == record["total_params"]

    def test_csv_series_ordered_and_monotone(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        code, _, _ = run(capsys, "summary", "--variant", "n", "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "variant,params,gflops"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["n", "s", "m", "l", "x"]
        params = [int(line.split(",")[1]) for line in lines[1:]]
        assert params == sorted(params)

    def test_json_with_csv_keeps_stdout_json_only(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        code, stdout, _ = run(capsys, "summary", "--variant", "n", "--size", "64",
                              "--format", "json", "--csv", str(csv_path))
        assert code == 0 and csv_path.is_file()
        lines = stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["schema"] == "y11.summary/1"

    def test_text_table(self, capsys):
        code, stdout, _ = run(capsys, "summary", "--variant", "n", "--size", "320")
        assert code == 0
        assert "DetectHead" in stdout
        assert "GFLOPs" in stdout

    def test_seed_is_not_a_summary_flag(self, capsys):
        code, _, err = run(capsys, "summary", "--variant", "n", "--seed", "3")
        assert code == 1 and "--seed" in err


class TestExitCodes:
    def test_unknown_command_is_usage(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_unknown_variant_is_usage(self, capsys):
        assert run(capsys, "summary", "--variant", "z")[0] == 1

    def test_conf_outside_unit_interval_is_usage(self, tmp_path, capsys):
        dets_path, anns_path = write_eval_fixture(tmp_path, [])
        code, stdout, err = run(capsys, "eval", str(dets_path), str(anns_path), "--conf", "1.5")
        assert code == 1 and stdout == ""
        assert "--conf" in err and "expected a value in [0, 1], got 1.5" in err

    def test_success_is_zero(self, capsys):
        assert run(capsys, "summary", "--variant", "n", "--size", "64")[0] == 0

    @pytest.mark.parametrize("threads", ["abc", "-3", "0", "2.5", " 2", "٣"])
    def test_bad_thread_cap_is_usage_error(self, monkeypatch, capsys, threads):
        monkeypatch.setenv("Y11_THREADS", threads)
        code, stdout, err = run(capsys, "summary", "--variant", "n", "--size", "64")
        assert code == 1 and stdout == ""
        assert "Y11_THREADS must be a positive integer" in err

    def test_thread_cap_overrides_every_pool_variable(self, monkeypatch):
        from y11.cli import _apply_thread_cap

        pools = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
        for var in pools:  # monkeypatch restores all five after the test
            monkeypatch.setenv(var, "2")
        monkeypatch.setenv("Y11_THREADS", "1")
        _apply_thread_cap()
        assert {var: os.environ[var] for var in pools} == dict.fromkeys(pools, "1")

    def test_empty_thread_cap_is_no_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("Y11_THREADS", "")
        assert run(capsys, "summary", "--variant", "n", "--size", "64")[0] == 0

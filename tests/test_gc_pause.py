"""The cyclic collector pause around the JSON readers, `evaluate` and
`y11 eval`: each call runs with the collector off and leaves its state as it
found it, the decorated functions keep their names, docstrings and
signatures, the pause leaves no garbage behind, and no other code in the
package toggles the collector."""
import ast
import gc
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import y11
from y11 import cli, io_formats, metrics
from y11.io_formats import DumpDetection, FormatError, write_detections

ANNOTATIONS = json.dumps({
    "images": [{"id": 1, "width": 40, "height": 30}],
    "annotations": [{"id": 1, "image_id": 1, "category_id": 2, "bbox": [4, 5, 10, 12]}],
    "categories": [{"id": 2, "name": "cat"}],
})
DETECTIONS = write_detections([DumpDetection(1, 2, (4.0, 5.0, 10.0, 12.0), 0.9)])
DETS = [(1, 2, 0.9, (4.0, 5.0, 14.0, 17.0))]
GTS = [(1, 2, (4.0, 5.0, 14.0, 17.0))]

# (module, function, the inner call that sees the pause, good args, bad args, error)
CASES = [
    (io_formats, "read_detections", "_load_json", (DETECTIONS,),
     (DETECTIONS.replace("0.900000", "1.500000"),), FormatError),
    (io_formats, "read_annotations", "_load_json", (ANNOTATIONS,),
     (ANNOTATIONS.replace('"width": 40', '"width": 0'),), FormatError),
    (metrics, "evaluate", "_match_sweep", (DETS, GTS), (DETS, []), ValueError),  # no ground truth
]
IDS = [case[1] for case in CASES]


@pytest.fixture
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.mark.parametrize("module, name, inner, good, bad, error", CASES, ids=IDS)
def test_call_pauses_and_restores_the_collector(collector_on, monkeypatch,
                                                module, name, inner, good, bad, error):
    seen = []
    real_inner = getattr(module, inner)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real_inner(*args, **kwargs)

    monkeypatch.setattr(module, inner, spy)
    fn = getattr(module, name)
    fn(*good)
    assert gc.isenabled()
    with pytest.raises(error):
        fn(*bad)
    assert gc.isenabled()
    assert len(seen) >= 2 and not any(seen)


@pytest.mark.parametrize("module, name, inner, good, bad, error", CASES, ids=IDS)
def test_call_leaves_a_disabled_collector_disabled(module, name, inner, good, bad, error):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        fn = getattr(module, name)
        fn(*good)
        assert not gc.isenabled()
        with pytest.raises(error):
            fn(*bad)
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("module, name", [case[:2] for case in CASES], ids=IDS)
def test_decorated_function_keeps_name_doc_and_signature(module, name):
    fn = getattr(module, name)
    plain = fn.__wrapped__
    assert fn is not plain
    assert (fn.__name__, fn.__qualname__, fn.__module__) == (
        plain.__name__, plain.__qualname__, plain.__module__)
    assert fn.__doc__ == plain.__doc__ and fn.__doc__
    assert inspect.signature(fn) == inspect.signature(plain)


def eval_sized_texts(seed=21, images=500, classes=80):
    """A detection dump and an annotation file the size of perfbench's
    `eval-coco`: about 7 ground truths and 90 detections per image, half
    of the detections jittered copies of a ground truth."""
    rng = np.random.default_rng(seed)
    image_records, anns, dets = [], [], []
    for image_id in range(1, images + 1):
        image_records.append({"id": image_id, "width": 640, "height": 640})
        for _ in range(int(rng.integers(3, 12))):
            x, y = rng.uniform(0, 560, 2).round(2).tolist()
            w, h = rng.uniform(8, 80, 2).round(2).tolist()
            cid = int(rng.integers(0, classes))
            anns.append({"id": len(anns) + 1, "image_id": image_id, "category_id": cid,
                         "bbox": [x, y, w, h]})
            for _ in range(int(rng.integers(3, 11))):
                jitter = rng.normal(0, 4, 4).tolist()
                dets.append(DumpDetection(image_id, cid, (
                    x + jitter[0], y + jitter[1], abs(w + jitter[2]), abs(h + jitter[3])),
                    float(rng.uniform(0, 1))))
        for _ in range(int(rng.integers(20, 60))):
            x, y = rng.uniform(0, 560, 2).tolist()
            w, h = rng.uniform(4, 80, 2).tolist()
            dets.append(DumpDetection(image_id, int(rng.integers(0, classes)), (x, y, w, h),
                                      float(rng.uniform(0, 1))))
    categories = [{"id": c, "name": f"c{c}"} for c in range(classes)]
    annotations = json.dumps({"images": image_records, "annotations": anns,
                              "categories": categories})
    return write_detections(dets), annotations


def evaluate_texts(det_text, ann_text):
    dets = io_formats.read_detections(det_text)
    anns = io_formats.read_annotations(ann_text)
    det_tuples = [(d.image_id, d.category_id, d.score,
                   (d.bbox[0], d.bbox[1], d.bbox[0] + d.bbox[2], d.bbox[1] + d.bbox[3]))
                  for d in dets]
    gt_tuples = [(a.image_id, a.category_id,
                  (a.bbox[0], a.bbox[1], a.bbox[0] + a.bbox[2], a.bbox[1] + a.bbox[3]))
                 for a in anns.annotations]
    return metrics.evaluate(det_tuples, gt_tuples)


def test_paused_calls_leave_no_garbage():
    det_text, ann_text = eval_sized_texts()
    assert det_text.count("image_id") > 40_000
    # the last record's score is out of range, so the column check fails and
    # the record-by-record reader raises at the end of the dump
    bad_text = det_text[: det_text.rstrip().rfind('"score"')] + '"score": 1.5}\n]\n'

    gc.collect()
    report = evaluate_texts(det_text, ann_text)
    assert gc.collect() == 0
    assert 0.0 < report.map5095 < report.map50 < 1.0

    gc.collect()
    try:
        io_formats.read_detections(bad_text)
    except FormatError:
        pass
    else:
        pytest.fail("the malformed dump was read")
    assert gc.collect() == 0


def set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


def parser_garbage():
    """Unreachable objects that building and running the CLI's argument
    parser leaves: argparse's parsers and actions refer to each other."""
    gc.collect()
    cli.build_parser().parse_args(["eval", "dets.json", "anns.json"])
    return gc.collect()


def test_eval_command_leaves_only_the_parsers_garbage(tmp_path, capsys):
    det_text, ann_text = eval_sized_texts()
    det_path, ann_path = tmp_path / "dets.json", tmp_path / "anns.json"
    det_path.write_text(det_text)
    ann_path.write_text(ann_text)
    expected = parser_garbage()
    for fmt in ("text", "json"):
        gc.collect()
        assert cli.main(["eval", str(det_path), str(ann_path), "--format", fmt]) == 0
        assert gc.collect() == expected
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_eval_command_runs_paused_and_restores_the_collector(monkeypatch, tmp_path, capsys,
                                                             enabled):
    # the record tuples that `cmd_eval` builds after the readers return run paused too
    seen = []
    read_annotations = io_formats.read_annotations

    def spy(text):
        result = read_annotations(text)
        seen.append(gc.isenabled())
        return result

    monkeypatch.setattr(io_formats, "read_annotations", spy)
    det_path, ann_path = tmp_path / "dets.json", tmp_path / "anns.json"
    ann_path.write_text(ANNOTATIONS)
    was_enabled = gc.isenabled()
    set_collector(enabled)
    try:
        det_path.write_text(DETECTIONS)
        assert cli.main(["eval", str(det_path), str(ann_path)]) == 0
        assert gc.isenabled() is enabled
        # a detection on an image the annotations lack fails inside `cmd_eval`
        det_path.write_text(write_detections([DumpDetection(7, 2, (4.0, 5.0, 10.0, 12.0), 0.9)]))
        assert cli.main(["eval", str(det_path), str(ann_path)]) == 2
        assert gc.isenabled() is enabled
    finally:
        set_collector(was_enabled)
    assert seen == [False, False]
    assert "image_id 7" in capsys.readouterr().err


def test_collector_is_toggled_only_by_the_helper():
    # `import gc` anywhere else could pause the collector around the helper,
    # so the module itself is confined to `_gcpause.py`.
    sites = set()
    for path in sorted(Path(y11.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names):
                    sites.add((*where, "import gc"))
                elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                    sites.add((*where, "from gc import"))
                elif (isinstance(node, ast.Attribute) and node.attr in ("disable", "enable")
                        and isinstance(node.value, ast.Name) and node.value.id == "gc"):
                    sites.add((*where, f"gc.{node.attr}"))
    assert sites == {
        ("_gcpause.py", None, "import gc"),
        ("_gcpause.py", "gc_paused", "gc.disable"),
        ("_gcpause.py", "gc_paused", "gc.enable"),
    }

"""Evaluation metrics against hand values and the brute-force oracle."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_helpers import (
    brute_force_map,
    evaluate_reference,
    iou_reference,
    match_detections_reference,
)
from y11 import metrics
from y11.metrics import (
    ClassMatches,
    average_precision,
    default_thresholds,
    evaluate,
    iou,
    match_detections,
    precision_recall_f1,
)

B = (0.0, 0.0, 10.0, 10.0)


def det(img, cls, score, box):
    return (img, cls, score, box)


def gt(img, cls, box):
    return (img, cls, box)


# Coordinates where `b if b < a else a` could part from `min(a, b)`: NaN,
# infinities, signed zeros, and ints beside floats.
AWKWARD_COORDS = (st.floats() | st.integers(-50, 50)
                  | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf")]))


@st.composite
def awkward_boxes(draw):
    x1, y1, x2, y2 = (draw(AWKWARD_COORDS) for _ in range(4))
    if draw(st.booleans()):  # order each axis, so that most boxes pass the check
        (x1, x2), (y1, y2) = sorted((x1, x2)), sorted((y1, y2))
    return x1, y1, x2, y2


class TestIoU:
    def test_identical(self):
        assert iou(B, B) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_one_seventh(self):
        assert abs(iou((0, 0, 2, 2), (1, 1, 3, 3)) - 1 / 7) < 1e-9

    def test_degenerate_union(self):
        assert iou((1, 1, 1, 1), (1, 1, 1, 1)) == 0.0

    def test_invalid_box(self):
        with pytest.raises(ValueError, match="invalid box"):
            iou((2, 0, 1, 1), B)

    # A box extent is 0 or at least 1e-3. A smaller one is not kept by the
    # shift itself (1.0 + 3e-30 == 1.0), so the shifted boxes would differ
    # from the drawn ones and no IoU could be translation-invariant.
    _EXTENT = st.one_of(st.just(0.0), st.floats(1e-3, 50))

    @settings(max_examples=60, deadline=None)
    @given(
        coords=st.tuples(*[st.floats(-50, 50), st.floats(-50, 50), _EXTENT, _EXTENT] * 2),
        shift=st.tuples(st.floats(-20, 20), st.floats(-20, 20)),
    )
    def test_symmetry_translation_range(self, coords, shift):
        ax1, ay1, aw, ah, bx1, by1, bw, bh = coords
        a = (ax1, ay1, ax1 + aw, ay1 + ah)
        b = (bx1, by1, bx1 + bw, by1 + bh)
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0
        dx, dy = shift
        a2 = (a[0] + dx, a[1] + dy, a[2] + dx, a[3] + dy)
        b2 = (b[0] + dx, b[1] + dy, b[2] + dx, b[3] + dy)
        assert iou(a2, b2) == pytest.approx(v, abs=1e-9)

    @settings(max_examples=500, deadline=None)
    @given(a=awkward_boxes(), b=awkward_boxes())
    def test_matches_the_builtin_min_max_reference_bit_for_bit(self, a, b):
        def outcome(f):
            try:
                v = f(a, b)
            except ValueError as exc:
                return "ValueError", str(exc)
            return type(v), struct.pack("<d", v)

        assert outcome(iou) == outcome(iou_reference)


TIE_DETS = [det(0, 0, 0.9, B), det(0, 0, 0.8, (0.0, 0.0, 10.0, 5.0))]
TIE_GTS = [gt(0, 0, (0.0, 0.0, 10.0, 5.0)), gt(0, 0, (0.0, 5.0, 10.0, 10.0))]


class TestMatching:
    def test_perfect_match(self):
        ledger = match_detections([det(0, 1, 0.9, B)], [gt(0, 1, B)], 0.5)
        m = ledger[1]
        assert (m.tp, m.fp, m.fn) == (1, 0, 0)

    def test_two_dets_one_gt(self):
        ledger = match_detections(
            [det(0, 1, 0.6, B), det(0, 1, 0.9, B)], [gt(0, 1, B)], 0.5
        )
        m = ledger[1]
        assert (m.tp, m.fp) == (1, 1)
        assert m.is_tp[0] and not m.is_tp[1]  # higher score wins the gt

    def test_below_threshold(self):
        shifted = (0.0, 6.0, 10.0, 16.0)  # IoU with B = 4/16 = 0.25 < 0.5
        ledger = match_detections([det(0, 1, 0.9, shifted)], [gt(0, 1, B)], 0.5)
        m = ledger[1]
        assert (m.tp, m.fp, m.fn) == (0, 1, 1)

    def test_class_and_image_isolation(self):
        dets = [det(0, 1, 0.9, B), det(1, 2, 0.8, B)]
        gts = [gt(0, 2, B), gt(1, 1, B)]
        ledger = match_detections(dets, gts, 0.5)
        assert ledger[1].tp == 0  # right class, wrong image
        assert ledger[2].tp == 0

    def test_equal_iou_tie_goes_to_first_ground_truth(self):
        # The 0.9 detection has IoU 0.5 with both halves of itself and claims
        # the first listed; the 0.8 detection equals that half, so it loses.
        dets, gts = TIE_DETS, TIE_GTS
        assert list(match_detections(dets, gts, 0.5)[0].is_tp) == [True, False]
        assert list(match_detections(dets, gts[::-1], 0.5)[0].is_tp) == [True, True]

    def test_invalid_box_sharing_a_key_raises(self):
        # Scored against every ground truth of its key, even one already taken.
        dets = [det(0, 1, 0.9, B), det(0, 1, 0.5, (5.0, 0.0, 4.0, 10.0))]
        with pytest.raises(ValueError, match="invalid box"):
            match_detections(dets, [gt(0, 1, B)], 0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_or_threshold_raises(self, bad):
        # Unchecked, a NaN score ranks anywhere and an infinite one first.
        dets = [det(0, 1, 0.9, B), det(0, 1, bad, B)]
        with pytest.raises(ValueError, match=f"^detection 1 has a non-finite score {bad}$"):
            match_detections(dets, [gt(0, 1, B)], 0.5)
        with pytest.raises(ValueError, match=f"^IoU threshold {bad} is not finite$"):
            match_detections(dets[:1], [gt(0, 1, B)], bad)

    def test_tp_plus_fn_equals_gts(self):
        rng = np.random.default_rng(0)
        dets, gts = [], []
        for i in range(30):
            img, cls = int(rng.integers(0, 4)), int(rng.integers(0, 3))
            x, y = rng.uniform(0, 50, 2)
            box = (x, y, x + rng.uniform(2, 12), y + rng.uniform(2, 12))
            gts.append(gt(img, cls, box))
            if rng.random() < 0.8:
                jx, jy = rng.uniform(-3, 3, 2)
                dbox = (box[0] + jx, box[1] + jy, box[2] + jx, box[3] + jy)
                dets.append(det(img, cls, float(rng.random()), dbox))
        ledger = match_detections(dets, gts, 0.5)
        per_class_gts = {}
        for g in gts:
            per_class_gts[g[1]] = per_class_gts.get(g[1], 0) + 1
        for cid, m in ledger.items():
            assert m.tp + m.fn == per_class_gts.get(cid, 0)


class TestPRF:
    def test_eight_two_two(self):
        p, r, f1 = precision_recall_f1(8, 2, 2)
        assert (p, r) == (0.8, 0.8)
        assert abs(f1 - 0.8) < 1e-9

    def test_degenerate_zero(self):
        assert precision_recall_f1(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_perfect(self):
        assert precision_recall_f1(5, 0, 0) == (1.0, 1.0, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            precision_recall_f1(-1, 0, 0)


class TestAveragePrecision:
    def test_single_tp(self):
        matches = match_detections([det(0, 0, 0.9, B)], [gt(0, 0, B)], 0.5)[0]
        assert average_precision(matches) == 1.0

    def test_fp_then_tp(self):
        dets = [det(0, 0, 0.9, (40, 40, 50, 50)), det(0, 0, 0.5, B)]
        matches = match_detections(dets, [gt(0, 0, B)], 0.5)[0]
        assert abs(average_precision(matches) - 0.5) < 1e-9

    def test_all_fp(self):
        dets = [det(0, 0, 0.9, (40, 40, 50, 50))]
        matches = match_detections(dets, [gt(0, 0, B)], 0.5)[0]
        assert average_precision(matches) == 0.0

    def test_zero_gt_sentinel(self):
        assert average_precision(ClassMatches(np.array([], dtype=bool), 0)) is None

    def test_score_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        dets, gts = _random_eval_case(rng, images=4, classes=2, n_gt=12, n_det=20)
        base = evaluate(dets, gts).map5095
        cubed = [(i, c, s**3, b) for i, c, s, b in dets]
        assert evaluate(cubed, gts).map5095 == pytest.approx(base, abs=1e-12)

    def test_appending_fp_never_increases(self):
        rng = np.random.default_rng(2)
        dets, gts = _random_eval_case(rng, images=3, classes=1, n_gt=8, n_det=10)
        matches = match_detections(dets, gts, 0.5)[0]
        base = average_precision(matches)
        min_score = min(d[2] for d in dets)
        worse = dets + [det(0, 0, min_score / 2, (900.0, 900.0, 901.0, 901.0))]
        worse_matches = match_detections(worse, gts, 0.5)[0]
        assert average_precision(worse_matches) <= base + 1e-12

    def test_appending_tp_never_decreases(self):
        rng = np.random.default_rng(3)
        dets, gts = _random_eval_case(rng, images=3, classes=1, n_gt=8, n_det=6)
        # One ground truth stays unmatched until a lowest-ranked detection
        # claims it; the gt set (the recall denominator) is fixed throughout.
        new_box = (500.0, 500.0, 510.0, 510.0)
        gts = gts + [gt(9, 0, new_box)]
        base = average_precision(match_detections(dets, gts, 0.5)[0])
        min_score = min(d[2] for d in dets)
        dets2 = dets + [det(9, 0, min_score / 2, new_box)]
        extended = average_precision(match_detections(dets2, gts, 0.5)[0])
        assert extended >= base - 1e-12


def _random_eval_case(rng, images, classes, n_gt, n_det):
    gts, dets = [], []
    boxes = []
    for _ in range(n_gt):
        img, cls = int(rng.integers(0, images)), int(rng.integers(0, classes))
        x, y = rng.uniform(0, 60, 2)
        box = (float(x), float(y), float(x + rng.uniform(4, 14)), float(y + rng.uniform(4, 14)))
        gts.append(gt(img, cls, box))
        boxes.append((img, cls, box))
    for _ in range(n_det):
        if boxes and rng.random() < 0.7:
            img, cls, box = boxes[int(rng.integers(0, len(boxes)))]
            jx, jy = rng.uniform(-4, 4, 2)
            dbox = (box[0] + jx, box[1] + jy, box[2] + jx, box[3] + jy)
        else:
            img, cls = int(rng.integers(0, images)), int(rng.integers(0, classes))
            x, y = rng.uniform(0, 60, 2)
            dbox = (float(x), float(y), float(x + 5), float(y + 5))
        dets.append(det(img, cls, float(rng.uniform(0.05, 1.0)),
                        tuple(float(v) for v in dbox)))
    return dets, gts


def _tie_heavy_case(rng, images, classes, n_gt, n_det):
    """Boxes on a 5-px grid with sides 0, 5 or 10 and scores from four levels:
    equal scores, duplicated ground truths (IoU ties), boxes that only touch
    edges (IoU exactly 0), zero-area boxes and IoUs exactly on a threshold."""

    def grid_box():
        x, y = (5.0 * float(v) for v in rng.integers(0, 6, 2))
        w, h = (5.0 * float(v) for v in rng.integers(0, 3, 2))
        return (x, y, x + w, y + h)

    gts = []
    for _ in range(n_gt):
        img, cls = int(rng.integers(0, images)), int(rng.integers(0, classes))
        box = grid_box()
        gts.append(gt(img, cls, box))
        if rng.random() < 0.3:
            gts.append(gt(img, cls, box))
    dets = []
    for _ in range(n_det):
        if gts and rng.random() < 0.4:
            img, cls, box = gts[int(rng.integers(0, len(gts)))]
        else:
            img, cls = int(rng.integers(0, images)), int(rng.integers(0, classes))
            box = grid_box()
        dets.append(det(img, cls, float(rng.choice([0.25, 0.5, 0.75, 1.0])), box))
    return dets, gts


def _reference_cases():
    yield TIE_DETS, TIE_GTS
    yield TIE_DETS, TIE_GTS[::-1]
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        yield _random_eval_case(rng, images=3, classes=3, n_gt=int(rng.integers(0, 25)),
                                n_det=int(rng.integers(0, 40)))
        yield _tie_heavy_case(rng, images=2, classes=2, n_gt=int(rng.integers(1, 20)),
                              n_det=int(rng.integers(1, 40)))


SWEEP = [0.0] + default_thresholds() + [1.0]


def _assert_ledgers_bitwise_equal(got, want):
    assert list(got) == list(want)
    for cid, w in want.items():
        g = got[cid]
        assert g.num_gt == w.num_gt
        assert g.is_tp.dtype == w.is_tp.dtype and g.is_tp.shape == w.is_tp.shape
        assert g.is_tp.tobytes() == w.is_tp.tobytes()


class TestSweepAgainstReference:
    """The one-pass sweep against the per-threshold loop it replaced."""

    def test_ledgers_and_report_equal_reference(self):
        for dets, gts in _reference_cases():
            ledgers = metrics._match_sweep(dets, gts, SWEEP)
            assert len(ledgers) == len(SWEEP)
            for t, ledger in zip(SWEEP, ledgers):
                want = match_detections_reference(dets, gts, t)
                _assert_ledgers_bitwise_equal(ledger, want)
                _assert_ledgers_bitwise_equal(match_detections(dets, gts, t), want)
            if gts:
                assert evaluate(dets, gts) == evaluate_reference(dets, gts, default_thresholds())
                assert evaluate(dets, gts, SWEEP, 0.5) == evaluate_reference(dets, gts, SWEEP, 0.5)

    def test_each_same_key_pair_scored_at_most_once(self, monkeypatch):
        calls = []
        scalar_iou = metrics.iou
        monkeypatch.setattr(metrics, "iou", lambda a, b: calls.append(1) or scalar_iou(a, b))
        for dets, gts in _reference_cases():
            gts_per_key = {}
            for image_id, class_id, _ in gts:
                gts_per_key[image_id, class_id] = gts_per_key.get((image_id, class_id), 0) + 1
            pairs = sum(gts_per_key.get((d[0], d[1]), 0) for d in dets)
            calls.clear()
            metrics._match_sweep(dets, gts, SWEEP)
            assert len(calls) <= pairs
            if pairs:
                assert calls  # the module-level iou is the one in use

    def test_operating_point_is_a_cut_of_the_half_ledger(self):
        # The detections scoring at least the conf are a prefix of the
        # ranking, and the greedy rule decides each one from higher-ranked
        # ones only, so P/R/F1 of the thresholded match equal those of the
        # full IoU-0.5 ledger cut after its last such detection.
        cases = [_tie_heavy_case(np.random.default_rng(200 + seed), images=3, classes=2,
                                 n_gt=20, n_det=60) for seed in range(40)]
        rng = np.random.default_rng(300)
        cases.append(_random_eval_case(rng, images=40, classes=10, n_gt=280, n_det=2000))
        for dets, gts in cases:
            ledger = metrics._match_sweep(dets, gts, [0.5])[0]
            for conf in (0.0, 0.25, 0.3, 0.5, 0.75, 1.0):
                working = [d for d in dets if d[2] >= conf]
                kept = {cid: sum(d[1] == cid for d in working) for cid in ledger}
                tp = sum(int(m.is_tp[: kept[cid]].sum()) for cid, m in ledger.items())
                want = precision_recall_f1(tp, len(working) - tp, len(gts) - tp)
                at_conf = match_detections(working, gts, 0.5).values()
                got = precision_recall_f1(sum(m.tp for m in at_conf), sum(m.fp for m in at_conf),
                                          sum(m.fn for m in at_conf))
                assert got == want


FIXTURE_DETS = [
    det(0, 0, 0.95, (10, 10, 30, 30)),
    det(0, 0, 0.80, (12, 12, 33, 33)),
    det(0, 1, 0.90, (40, 40, 60, 62)),
    det(1, 0, 0.70, (5, 5, 25, 24)),
    det(1, 1, 0.60, (50, 50, 70, 70)),
    det(1, 1, 0.55, (100, 100, 120, 120)),
    det(2, 0, 0.85, (0, 0, 18, 18)),
    det(2, 1, 0.40, (30, 28, 52, 50)),
    det(3, 0, 0.30, (60, 60, 80, 80)),
    det(4, 1, 0.20, (10, 12, 30, 34)),
    det(4, 0, 0.10, (200, 200, 210, 210)),
]
FIXTURE_GTS = [
    gt(0, 0, (10, 10, 30, 30)),
    gt(0, 1, (41, 41, 60, 61)),
    gt(1, 0, (5, 5, 25, 25)),
    gt(1, 1, (52, 52, 70, 72)),
    gt(2, 0, (1, 1, 19, 19)),
    gt(2, 1, (30, 30, 52, 52)),
    gt(3, 0, (62, 58, 82, 78)),
    gt(4, 1, (10, 10, 30, 32)),
]


class TestMeanAP:
    def test_two_class_arithmetic(self):
        # AP 1.0 for class 0 and 0.5 for class 1 at every threshold (IoUs are
        # 1 or 0); class 9 has no ground truths and is left out of the mean.
        far = (40, 40, 50, 50)
        dets = [det(0, 0, 0.9, B), det(0, 1, 0.8, far), det(0, 1, 0.7, B), det(0, 9, 0.6, B)]
        report = evaluate(dets, [gt(0, 0, B), gt(0, 1, B)])
        assert report.map5095 == 0.75
        assert all(v == 0.75 for v in report.map_by_thresh.values())
        assert report.ap[9] == {t: None for t in default_thresholds()}

    def test_single_class(self):
        # TP, six FPs, TP over two ground truths: AP 0.5 * 1 + 0.5 * 2/8.
        other = (40, 40, 50, 50)
        dets = [det(0, 3, 0.9, B)] + [det(1, 3, 0.8 - 0.1 * i, B) for i in range(6)]
        dets.append(det(0, 3, 0.1, other))
        report = evaluate(dets, [gt(0, 3, B), gt(0, 3, other)])
        assert report.class_ids == [3]
        assert report.map5095 == 0.625

    def test_no_evaluable_class(self):
        with pytest.raises(ValueError, match="no class with ground truths"):
            evaluate([det(0, 0, 0.9, B)], [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_or_operating_conf_raises(self, bad):
        # Unchecked, a NaN score gives mAP@0.5 1.0 beside P/R/F1 0/0/0, and
        # a NaN operating_conf an empty operating point.
        with pytest.raises(ValueError, match=f"^detection 0 has a non-finite score {bad}$"):
            evaluate([det(1, 0, bad, (0, 0, 2, 2))], [gt(1, 0, (0, 0, 2, 2))])
        with pytest.raises(ValueError, match=f"^operating_conf {bad} is not finite$"):
            evaluate([det(1, 0, 0.9, (0, 0, 2, 2))], [gt(1, 0, (0, 0, 2, 2))],
                     operating_conf=bad)

    def test_fixture_matches_brute_force_oracle(self):
        report = evaluate(FIXTURE_DETS, FIXTURE_GTS)
        want_by_thresh, want_overall = brute_force_map(
            FIXTURE_DETS, FIXTURE_GTS, default_thresholds()
        )
        assert abs(report.map5095 - want_overall) < 1e-9
        for t in default_thresholds():
            assert abs(report.map_by_thresh[t] - want_by_thresh[t]) < 1e-9

    def test_sweep_without_half_raises(self):
        with pytest.raises(ValueError, match="must include 0.5"):
            evaluate(FIXTURE_DETS, FIXTURE_GTS, [0.3, 0.55])

    # One detection at IoU 0.8 with its ground truth: AP 1 at 0.5, 0 at 0.9.
    SHORT = [det(0, 0, 0.9, (0, 0, 10, 8))]
    TALL = [gt(0, 0, B)]

    def test_repeated_threshold_raises(self):
        assert evaluate(self.SHORT, self.TALL, [0.5, 0.9]).map5095 == 0.5
        with pytest.raises(ValueError, match="threshold 0.5 repeats"):
            evaluate(self.SHORT, self.TALL, [0.5, 0.5, 0.9])

    def test_non_finite_threshold_raises(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"threshold {bad} is not a finite value"):
                evaluate(self.SHORT, self.TALL, [0.5, bad])

    def test_threshold_outside_unit_interval_raises(self):
        for bad in (1.5, -0.1):
            with pytest.raises(ValueError, match=f"threshold {bad} is not a finite value"):
                evaluate(self.SHORT, self.TALL, [0.5, bad, 2.0])
        evaluate(self.SHORT, self.TALL, [0.0, 0.5, 1.0])

    def test_iterators_score_as_lists(self):
        # the operating-point match reads the inputs after the AP sweep does
        dets = [det(0, 1, 0.9, B), det(0, 1, 0.8, (20, 20, 30, 30))]
        gts = [gt(0, 1, B)]
        report = evaluate(dets, gts)
        assert (report.precision, report.recall) == (0.5, 1.0)
        assert evaluate(iter(dets), iter(gts)) == report
        assert evaluate((d for d in FIXTURE_DETS), iter(FIXTURE_GTS)) == evaluate(
            FIXTURE_DETS, FIXTURE_GTS)

    def test_map5095_not_above_map50(self):
        report = evaluate(FIXTURE_DETS, FIXTURE_GTS)
        assert report.map5095 <= report.map50 + 1e-12

    def test_random_cases_match_oracle(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            dets, gts = _random_eval_case(rng, images=5, classes=3, n_gt=15, n_det=25)
            report = evaluate(dets, gts)
            _, want = brute_force_map(dets, gts, default_thresholds())
            assert abs(report.map5095 - want) < 1e-9

    def test_zero_gt_class_excluded(self):
        dets = FIXTURE_DETS + [det(0, 9, 0.99, (0, 0, 5, 5))]  # class 9 has no gts
        report = evaluate(dets, FIXTURE_GTS)
        base = evaluate(FIXTURE_DETS, FIXTURE_GTS)
        assert report.map5095 == pytest.approx(base.map5095, abs=1e-12)
        assert report.ap[9][0.5] is None

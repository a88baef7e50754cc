"""Letterbox, head decoding, NMS, and inverse coordinate mapping."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tensor
from oracle_helpers import (
    decode_head_reference,
    letterbox_reference,
    nms_reference,
    unletterbox_reference,
)
from y11.io_formats import DumpDetection, write_detections
from y11.metrics import iou
from y11.postprocess import (
    PAD_VALUE,
    Candidates,
    Detection,
    LetterboxMeta,
    decode_head,
    letterbox,
    nms,
    unletterbox,
)
from y11.tensor import Tensor


class TestLetterbox:
    def test_downscale_tall_pad(self):
        # 960x1280 (h x w) image at target 640: scale 0.5, resized 480 tall,
        # so 80 px of padding above and below.
        image = Tensor(np.zeros((1, 3, 960, 1280)))
        boxed, meta = letterbox(image, 640)
        assert boxed.shape == (1, 3, 640, 640)
        assert meta.scale == 0.5
        assert (meta.pad_left, meta.pad_top) == (0, 80)
        assert np.all(boxed.data[:, :, :80, :] == np.float32(PAD_VALUE))
        assert np.all(boxed.data[:, :, 80:560, :] == 0.0)

    def test_square_identity(self):
        rng = np.random.default_rng(0)
        image = random_tensor(rng, 1, 3, 640, 640)
        boxed, meta = letterbox(image, 640)
        assert meta.scale == 1.0
        assert (meta.pad_left, meta.pad_top) == (0, 0)
        assert np.array_equal(boxed.data, image.data)

    def test_narrow_image_centered(self):
        # 640x320 (h x w): scale stays 1, width padded 160 on each side.
        image = Tensor(np.zeros((1, 3, 640, 320)))
        boxed, meta = letterbox(image, 640)
        assert meta.scale == 1.0
        assert (meta.pad_left, meta.pad_top) == (160, 0)
        assert np.all(boxed.data[:, :, :, :160] == np.float32(PAD_VALUE))

    @pytest.mark.parametrize("shape", [(2, 3, 4, 4), (1, 1, 4, 4)])
    def test_batch_or_channels_refused(self, shape):
        message = re.escape(f"letterbox expects a 1x3xHxW image, got {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            letterbox(Tensor(np.zeros(shape)), 32)

    def test_equals_2d_fancy_index_reference(self):
        rng = np.random.default_rng(12)
        for h, w, target in [(719, 405, 640), (48, 80, 64), (1, 3, 32), (300, 300, 320),
                             (97, 1001, 96)]:
            image = random_tensor(rng, 1, 3, h, w)
            boxed, meta = letterbox(image, target)
            want, want_meta = letterbox_reference(image, target)
            assert boxed.data.tobytes() == want.data.tobytes() and meta == want_meta

    def test_box_roundtrip_within_half_pixel(self):
        meta = letterbox(Tensor(np.zeros((1, 3, 719, 405))), 640)[1]
        for x, y in [(0.0, 0.0), (404.0, 718.0), (123.4, 567.8)]:
            bx = x * meta.scale + meta.pad_left
            by = y * meta.scale + meta.pad_top
            det = Detection(0, 0.9, (bx, by, bx + 1, by + 1))
            back = unletterbox([det], meta)[0].box
            assert abs(back[0] - x) <= 0.51 and abs(back[1] - y) <= 0.51


def make_head_tensor(reg_max, nc, h, w, dist_logits=None, cls_logits=None):
    c = 4 * reg_max + nc
    data = np.full((1, c, h, w), -1e9, dtype=np.float32)
    if dist_logits is not None:
        data[0, : 4 * reg_max] = dist_logits
    if cls_logits is not None:
        data[0, 4 * reg_max :] = cls_logits
    return Tensor(data)


class TestDecodeHead:
    def test_all_logits_low_gives_empty(self):
        t = make_head_tensor(16, 80, 4, 4)
        assert list(decode_head([t], [8], 16, 80, 0.25)) == []

    def test_one_hot_bin_three(self):
        reg_max, nc = 16, 3
        dist = np.zeros((64, 1, 1), dtype=np.float32)
        for side in range(4):
            dist[side * reg_max + 3] = 1e4  # effectively a delta on bin 3
        cls = np.full((nc, 1, 1), -1e9, dtype=np.float32)
        cls[1] = 5.0
        t = make_head_tensor(reg_max, nc, 1, 1, dist, cls)
        dets = list(decode_head([t], [8], reg_max, nc, 0.25))
        assert len(dets) == 1
        det = dets[0]
        assert det.class_id == 1
        # Cell center (4, 4); every side distance = 3 * 8 = 24.
        assert det.box == (4 - 24, 4 - 24, 4 + 24, 4 + 24)

    def test_uniform_distance_logits(self):
        reg_max, nc = 16, 2
        dist = np.zeros((4 * reg_max, 1, 1), dtype=np.float32)
        cls = np.zeros((nc, 1, 1), dtype=np.float32)  # sigmoid = 0.5 > 0.25
        t = make_head_tensor(reg_max, nc, 1, 1, dist, cls)
        det = list(decode_head([t], [8], reg_max, nc, 0.25))[0]
        # Uniform softmax expectation is exactly (reg_max - 1) / 2 = 7.5.
        assert det.box[2] - det.box[0] == pytest.approx(2 * 7.5 * 8, abs=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("channel", [5, 64 + 1])  # a box channel, a class channel
    def test_non_finite_value_raises(self, value, channel):
        data = np.full((1, 4 * 16 + 2, 1, 1), -1e9, dtype=np.float32)
        data[0, channel] = value
        tensors = [make_head_tensor(16, 2, 2, 2), Tensor(data)]
        with pytest.raises(ValueError, match=rf"head 1 \(stride 16\).*non-finite.*channel {channel}"):
            decode_head(tensors, [8, 16], 16, 2, 0.25)

    def test_channel_mismatch(self):
        t = Tensor(np.zeros((1, 100, 2, 2)))
        with pytest.raises(ValueError, match="channels"):
            decode_head([t], [8], 16, 80, 0.25)

    def test_head_count_and_batch_refused(self):
        t = make_head_tensor(16, 2, 2, 2)
        with pytest.raises(ValueError, match="^got 1 head tensors for 2 strides$"):
            decode_head([t], [8, 16], 16, 2, 0.25)
        pair = Tensor(np.concatenate([t.data, t.data]))
        with pytest.raises(ValueError, match="^decode_head handles batch size 1$"):
            decode_head([pair], [8], 16, 2, 0.25)

    def test_candidate_count_bounded_by_cells(self):
        rng = np.random.default_rng(0)
        tensors = [
            Tensor(rng.standard_normal((1, 144, s, s)).astype(np.float32))
            for s in (8, 4, 2)
        ]
        dets = decode_head(tensors, [8, 16, 32], 16, 80, 0.0)
        assert len(dets) == 8 * 8 + 4 * 4 + 2 * 2
        # Records hold Python scalars, not numpy ones.
        for d in dets:
            assert type(d.class_id) is int and type(d.score) is float
            assert type(d.box) is tuple and all(type(v) is float for v in d.box)

    def test_box_does_not_depend_on_how_many_cells_pass(self):
        # A kept cell's box must be the same bits whichever conf kept it: the
        # cells kept at a higher conf are those scoring above it at conf 0.5.
        rng = np.random.default_rng(12)
        strides = [8, 16, 32]
        for trial in range(25):
            raw = [Tensor(rng.standard_normal((1, 4 * 16 + 3, s, s)).astype(np.float32) * 3)
                   for s in (40, 20, 10)]
            low = decode_head(raw, strides, 16, 3, 0.5)
            for conf in (0.9, 0.99, 0.999):
                high = decode_head(raw, strides, 16, 3, conf)
                same = low.scores > np.float32(conf)  # decode compares float32 scores
                assert 0 < len(high) < len(low)
                assert np.array_equal(high.scores, low.scores[same])
                assert np.array_equal(high.class_ids, low.class_ids[same])
                assert high.boxes.tobytes() == low.boxes[same].tobytes()


def random_candidates(rng, count, classes=3, span=40.0):
    out = []
    for _ in range(count):
        x1, y1 = rng.uniform(0, span, 2)
        w, h = rng.uniform(1, 10, 2)
        out.append(
            Detection(
                class_id=int(rng.integers(0, classes)),
                score=float(rng.uniform(0.05, 1.0)),
                box=(float(x1), float(y1), float(x1 + w), float(y1 + h)),
            )
        )
    return out


class TestNMS:
    def test_high_overlap_suppressed(self):
        a = Detection(0, 0.9, (0.0, 0.0, 10.0, 10.0))
        b = Detection(0, 0.8, (0.0, 1.0, 10.0, 11.0))  # IoU 9/11 ~ 0.82
        kept = nms([a, b], 0.45)
        assert kept == [a]

    def test_identical_boxes_different_classes_kept(self):
        a = Detection(0, 0.9, (0.0, 0.0, 5.0, 5.0))
        b = Detection(1, 0.9, (0.0, 0.0, 5.0, 5.0))
        assert len(nms([a, b], 0.45)) == 2

    def test_empty_and_idempotent(self):
        assert nms([], 0.5) == []
        rng = np.random.default_rng(1)
        cands = random_candidates(rng, 40)
        once = nms(cands, 0.45)
        assert nms(once, 0.45) == once

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        cands = random_candidates(rng, 50)
        base = nms(cands, 0.4)
        for seed in range(3):
            perm = list(cands)
            np.random.default_rng(seed).shuffle(perm)
            assert nms(perm, 0.4) == base

    def test_output_sorted_and_iou_bounded(self):
        rng = np.random.default_rng(3)
        kept = nms(random_candidates(rng, 80), 0.45)
        scores = [d.score for d in kept]
        assert scores == sorted(scores, reverse=True)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                if a.class_id == b.class_id:
                    assert iou(a.box, b.box) <= 0.45


def tie_heavy_candidates(rng, count):
    """Boxes on a 5-px grid with 5-px sides, so many pairs have an IoU of
    exactly 1/3, 1/2 or another simple ratio; scores from a handful of values,
    repeated boxes and -0.0 coordinates."""
    out = []
    for _ in range(count):
        x1, y1 = (5.0 * rng.integers(0, 6, 2)).tolist()
        w, h = (5.0 * rng.integers(0, 4, 2)).tolist()
        box = [x1, y1, x1 + w, y1 + h]
        if rng.random() < 0.2:
            box = [-0.0 if v == 0.0 else v for v in box]
        out.append(Detection(int(rng.integers(0, 3)), [0.5, 0.25, 0.75][rng.integers(0, 3)],
                             tuple(box)))
    if out and rng.random() < 0.5:
        out += out[: rng.integers(1, len(out) + 1)]  # exact duplicates
    return out


TIED_SCORES = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0])
CORNERS = st.sampled_from([-0.0, 0.0, 5.0])
SIDES = st.sampled_from([-0.0, 0.0, 5.0, 10.0])
GRID_BOXES = st.tuples(CORNERS, CORNERS, SIDES, SIDES).map(
    lambda b: (b[0], b[1], b[0] + b[2], b[1] + b[3]))


class TestColumnarAgainstReference:
    def test_decode_equals_per_scale_records(self):
        rng = np.random.default_rng(10)
        for trial in range(80):
            reg_max, nc = int(rng.integers(2, 17)), int(rng.integers(1, 6))
            scales = int(rng.integers(1, 4))
            dims = [tuple(rng.integers(1, 7, 2).tolist()) for _ in range(scales)]
            strides = [8 * 2 ** i for i in range(scales)]
            heads = [rng.standard_normal((1, 4 * reg_max + nc, h, w)).astype(np.float32) * 3
                     for h, w in dims]
            if trial >= 60:
                # the decode takes each distribution's maximum column by column:
                # whole-number logits repeat a row's maximum, rounding gives
                # -0.0 beside 0.0, and some rows are only signed zeros
                for a in heads:
                    d = a[0, : 4 * reg_max]
                    d[...] = np.round(d / rng.choice([1, 3, 9]))
                    d[rng.random(d.shape) < 0.3] = -0.0
                    d[:, rng.random(d.shape[1:]) < 0.2] *= 0
            raw = [Tensor(a) for a in heads]
            for conf in (0.0, 0.25, 0.999):
                got = decode_head(raw, strides, reg_max, nc, conf)
                want = decode_head_reference(raw, strides, reg_max, nc, conf)
                # repr tells apart numpy scalars, int from float and -0.0 from 0.0
                assert repr(list(got)) == repr(want)
                assert len(got) == len(want)
                assert got.boxes.dtype == np.float64 and got.scores.dtype == np.float64
                assert got.class_ids.dtype == np.int64 and got.boxes.shape == (len(want), 4)
        empty = decode_head(raw, strides, reg_max, nc, 1.0)
        assert decode_head_reference(raw, strides, reg_max, nc, 1.0) == []
        assert len(empty) == 0 and list(empty) == [] and empty.boxes.shape == (0, 4)

    @pytest.mark.parametrize("kind", ["criterion8", "tie_heavy"])
    def test_nms_equals_per_record_reference(self, kind):
        rng = np.random.default_rng(11)
        for case in range(400):
            if kind == "criterion8":
                cands = random_candidates(rng, int(rng.integers(0, 28)), span=30.0)
                thresh = float(rng.uniform(0.2, 0.7))
            else:
                cands = tie_heavy_candidates(rng, int(rng.integers(0, 30)))
                thresh = [1 / 3, 0.5, 0.25, 0.0, 0.6][case % 5]
            want = nms_reference(cands, thresh)
            for given in (cands, Candidates.of(cands), iter(cands)):
                assert repr(nms(given, thresh)) == repr(want)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), TIED_SCORES, GRID_BOXES), max_size=30),
           st.integers(0, 30), st.sampled_from([0.0, 1 / 3, 0.5]))
    def test_nms_on_tied_scores_equals_reference(self, records, repeats, thresh):
        # equal scores within and across classes, repeated boxes, and -0.0 beside 0.0
        cands = [Detection(*r) for r in records]
        cands += cands[:repeats]
        want = repr(nms_reference(cands, thresh))
        assert repr(nms(cands, thresh)) == want
        assert repr(nms(Candidates.of(cands), thresh)) == want

    @pytest.mark.parametrize("conf", [0.001, 0.25])
    def test_dump_text_equals_reference_path(self, conf):
        from y11.graph import build_graph

        g = build_graph("n").init_random(5)
        image = random_tensor(np.random.default_rng(6), 1, 3, 90, 130)
        boxed, meta = letterbox(image, 64)
        raw = g.forward(boxed)

        def dump(dets):
            return write_detections([
                DumpDetection(0, d.class_id, (d.box[0], d.box[1], d.box[2] - d.box[0],
                                              d.box[3] - d.box[1]), d.score)
                for d in unletterbox(dets, meta)])

        cands = decode_head(raw, g.strides, g.reg_max, g.num_classes, conf)
        ref = decode_head_reference(raw, g.strides, g.reg_max, g.num_classes, conf)
        assert len(ref) > 0
        assert dump(nms(cands, 0.45)) == dump(nms_reference(ref, 0.45))

    def test_candidates_columns_and_records(self):
        cands = Candidates.of([Detection(2, 0.5, (1.0, 2.0, 3.0, 4.0)),
                               Detection(0, 0.25, (-0.0, 0.0, 1.0, 1.0))])
        assert Candidates.of(cands) is cands
        assert len(cands) == 2 and cands.boxes.shape == (2, 4)
        records = list(cands)
        assert records == [Detection(2, 0.5, (1.0, 2.0, 3.0, 4.0)),
                           Detection(0, 0.25, (-0.0, 0.0, 1.0, 1.0))]
        assert all(type(d.class_id) is int and type(d.score) is float for d in records)
        assert np.signbit(records[1].box[0])
        assert len(Candidates.of([])) == 0 and list(Candidates.of([])) == []


class TestRecords:
    def test_detection_slotted_frozen_hashable(self):
        a = Detection(2, 0.5, (1.0, 2.0, 3.0, 4.0))
        b = Detection(2, 0.5, (1.0, 2.0, 3.0, 4.0))
        assert not hasattr(a, "__dict__")
        with pytest.raises(AttributeError):
            a.score = 0.9
        assert a == b and hash(a) == hash(b)
        assert a != Detection(2, 0.6, a.box)
        assert len({a, b}) == 1

    def test_letterbox_meta_slotted_frozen(self):
        meta = LetterboxMeta(0.5, 0, 80, 1280, 960)
        assert not hasattr(meta, "__dict__")
        with pytest.raises(AttributeError):
            meta.scale = 1.0


class TestUnletterbox:
    def test_identity_meta(self):
        meta = LetterboxMeta(1.0, 0, 0, 100, 100)
        det = Detection(0, 0.5, (10.0, 20.0, 30.0, 40.0))
        assert unletterbox([det], meta)[0] == det

    def test_inverse_affine(self):
        meta = LetterboxMeta(0.5, 0, 80, 1280, 960)
        det = Detection(0, 0.5, (100.0, 180.0, 110.0, 190.0))
        out = unletterbox([det], meta)[0]
        assert out.box == (200.0, 200.0, 220.0, 220.0)

    def test_clipping(self):
        meta = LetterboxMeta(1.0, 0, 0, 50, 40)
        det = Detection(0, 0.5, (-5.0, -3.0, 60.0, 70.0))
        assert unletterbox([det], meta)[0].box == (0.0, 0.0, 50.0, 40.0)

    def test_coordinates_are_floats_past_every_edge(self):
        meta = LetterboxMeta(1.0, 0, 0, 50, 40)
        box = unletterbox([Detection(0, 0.5, (-5.0, -3.0, 60.0, 70.0))], meta)[0].box
        assert all(type(v) is float for v in box)

    def test_matches_per_record_reference(self):
        # Includes boxes past every edge, zero pads and -0.0 coordinates, so
        # the clip must keep the sign of zero the way Python's min/max do.
        rng = np.random.default_rng(4)
        for trial in range(40):
            pad = (0, 0) if trial % 2 else tuple(rng.integers(0, 50, 2).tolist())
            size = tuple(rng.integers(1, 400, 2).tolist())
            meta = LetterboxMeta(float(rng.uniform(0.2, 3.0)), *pad, *size)
            boxes = rng.uniform(-200, 800, (25, 4))
            boxes[rng.random((25, 4)) < 0.2] = -0.0
            dets = [Detection(int(c), float(s), tuple(b.tolist()))
                    for c, s, b in zip(rng.integers(0, 80, 25), rng.random(25), boxes)]
            got = unletterbox(dets, meta)
            want = unletterbox_reference(dets, meta)
            assert [(d.class_id, d.score) for d in got] == [(d.class_id, d.score) for d in want]
            for g, w in zip(got, want):
                assert g.box == w.box
                assert np.signbit(g.box).tolist() == np.signbit(w.box).tolist()
        assert unletterbox([], meta) == []


class TestPipeline:
    def test_full_pipeline_contract(self):
        from y11.graph import build_graph

        g = build_graph("n").init_random(0)
        rng = np.random.default_rng(1)
        image = random_tensor(rng, 1, 3, 90, 130)
        boxed, meta = letterbox(image, 64)
        raw = g.forward(boxed)
        cands = decode_head(raw, g.strides, g.reg_max, g.num_classes, 0.25)
        assert len(cands) <= 8 * 8 + 4 * 4 + 2 * 2
        dets = unletterbox(nms(cands, 0.45), meta)
        for d in dets:
            assert d.score > 0.25
            x1, y1, x2, y2 = d.box
            assert 0 <= x1 <= x2 <= 130
            assert 0 <= y1 <= y2 <= 90

"""Letterbox, head decoding, NMS, and inverse coordinate mapping."""
import numpy as np
import pytest

from conftest import random_tensor
from y11.metrics import iou
from y11.postprocess import (
    PAD_VALUE,
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
        image = Tensor.zeros(1, 3, 960, 1280)
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
        image = Tensor.zeros(1, 3, 640, 320)
        boxed, meta = letterbox(image, 640)
        assert meta.scale == 1.0
        assert (meta.pad_left, meta.pad_top) == (160, 0)
        assert np.all(boxed.data[:, :, :, :160] == np.float32(PAD_VALUE))

    def test_box_roundtrip_within_half_pixel(self):
        meta = letterbox(Tensor.zeros(1, 3, 719, 405), 640)[1]
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
        assert decode_head([t], [8], 16, 80, 0.25) == []

    def test_one_hot_bin_three(self):
        reg_max, nc = 16, 3
        dist = np.zeros((64, 1, 1), dtype=np.float32)
        for side in range(4):
            dist[side * reg_max + 3] = 1e4  # effectively a delta on bin 3
        cls = np.full((nc, 1, 1), -1e9, dtype=np.float32)
        cls[1] = 5.0
        t = make_head_tensor(reg_max, nc, 1, 1, dist, cls)
        dets = decode_head([t], [8], reg_max, nc, 0.25)
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
        det = decode_head([t], [8], reg_max, nc, 0.25)[0]
        # Uniform softmax expectation is exactly (reg_max - 1) / 2 = 7.5.
        assert det.box[2] - det.box[0] == pytest.approx(2 * 7.5 * 8, abs=0)

    def test_channel_mismatch(self):
        t = Tensor.zeros(1, 100, 2, 2)
        with pytest.raises(ValueError, match="channels"):
            decode_head([t], [8], 16, 80, 0.25)

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

"""Byte-exact file formats: PPM, weights container, annotations, detections."""
import json
import struct

import numpy as np
import pytest

from conftest import write_ppm
from y11 import io_formats
from y11.io_formats import (
    FormatError,
    DumpDetection,
    read_annotations,
    read_detections,
    read_ppm,
    read_weights,
    write_detections,
    write_weights,
)
from y11.tensor import Tensor


class TestPPM:
    def test_single_white_pixel(self):
        data = b"P6\n1 1\n255\n\xff\xff\xff"
        t = read_ppm(data)
        assert t.shape == (1, 3, 1, 1)
        assert np.all(t.data == 1.0)

    def test_plane_layout(self):
        # Two pixels: pure red then pure blue.
        data = b"P6\n2 1\n255\n\xff\x00\x00\x00\x00\xff"
        t = read_ppm(data)
        assert t.shape == (1, 3, 1, 2)
        assert np.array_equal(t.data[0, 0, 0], [1.0, 0.0])  # R plane
        assert np.array_equal(t.data[0, 1, 0], [0.0, 0.0])  # G plane
        assert np.array_equal(t.data[0, 2, 0], [0.0, 1.0])  # B plane

    def test_comments_in_header(self):
        data = b"P6\n# a comment\n1 1\n255\n\x00\x00\x00"
        assert read_ppm(data).shape == (1, 3, 1, 1)

    def test_any_ascii_whitespace_separates_and_cr_ends_a_comment(self):
        assert read_ppm(b"P6\v2 #c\r1\f255\t" + bytes(6)).shape == (1, 3, 1, 2)

    def test_hash_inside_a_token_is_not_a_comment(self):
        with pytest.raises(FormatError, match="bad header near byte 6: .*b'2#c'"):
            read_ppm(b"P6\n2#c 1\n255\n" + bytes(6))

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"", "truncated header at byte 0"),
            (b"P6 # only a comment", "truncated header at byte 19"),
            (b"P6\n1 1\n", "truncated header at byte 7"),
        ],
    )
    def test_truncated_header_names_its_byte(self, data, message):
        with pytest.raises(FormatError, match=f"^ppm: {message}$"):
            read_ppm(data)

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            read_ppm(b"P5\n1 1\n255\n\x00")

    def test_bad_maxval(self):
        with pytest.raises(FormatError, match="maxval"):
            read_ppm(b"P6\n1 1\n65535\n\x00\x00\x00")

    def test_truncated_pixels(self):
        with pytest.raises(FormatError, match="truncated"):
            read_ppm(b"P6\n2 2\n255\n\x00\x00\x00")

    def test_trailing_junk_rejected(self):
        with pytest.raises(FormatError, match="trailing"):
            read_ppm(b"P6\n1 1\n255\n\x00\x00\x00extra")

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        image = Tensor((rng.integers(0, 256, (1, 3, 5, 7)) / 255.0).astype(np.float32))
        again = read_ppm(write_ppm(image))
        assert np.array_equal(again.data, image.data)


class TestWeightsContainer:
    def test_empty_is_twelve_bytes(self):
        data = write_weights([])
        assert len(data) == 12
        assert data[:4] == b"Y11W"
        assert read_weights(data) == []

    def test_roundtrip_bitwise(self):
        rng = np.random.default_rng(1)
        entries = [
            ("a.weight", rng.standard_normal((2, 3, 3, 3)).astype(np.float32)),
            ("a.gamma", rng.standard_normal(4).astype(np.float32)),
            ("b.bias", rng.standard_normal(1).astype(np.float32)),
        ]
        out = read_weights(write_weights(entries))
        assert [n for n, _ in out] == [n for n, _ in entries]
        for (_, want), (_, got) in zip(entries, out):
            assert got.dtype == np.float32
            assert np.array_equal(got, want)

    def test_entries_are_read_only_views(self):
        data = write_weights([("a", np.arange(6, dtype=np.float32).reshape(2, 3)),
                              ("b", np.ones(4, dtype=np.float32))])
        buffer = np.frombuffer(data, dtype=np.uint8)
        for _, arr in read_weights(data):
            assert np.shares_memory(arr, buffer)
            assert not arr.flags.writeable

    def test_mutable_input_copied_once(self):
        want = np.arange(5, dtype=np.float32)
        data = bytearray(write_weights([("w", want)]))
        ((_, got),) = read_weights(data)
        data[-20:] = b"\xff" * 20
        assert np.array_equal(got, want)

    def test_write_is_deterministic(self):
        entries = [("x", np.arange(6, dtype=np.float32).reshape(2, 3))]
        assert write_weights(entries) == write_weights(entries)

    def test_duplicate_name_rejected_on_write(self):
        e = ("dup", np.zeros(1, dtype=np.float32))
        with pytest.raises(FormatError, match="duplicate"):
            write_weights([e, e])

    def test_cut_mid_payload_names_entry(self):
        data = write_weights([("layer0.weight", np.ones(10, dtype=np.float32))])
        with pytest.raises(FormatError, match="layer0.weight"):
            read_weights(data[:-8])

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            read_weights(b"NOPE" + b"\x00" * 8)

    def test_unknown_dtype(self):
        data = bytearray(write_weights([("w", np.zeros(1, dtype=np.float32))]))
        # dtype code byte sits right after the 12-byte header, the u16 name
        # length and the name itself
        data[12 + 2 + 1] = 9
        with pytest.raises(FormatError, match="dtype"):
            read_weights(bytes(data))

    def test_trailing_bytes_rejected(self):
        data = write_weights([("w", np.zeros(2, dtype=np.float32))])
        with pytest.raises(FormatError, match="trailing"):
            read_weights(data + b"\x00")

    def test_non_utf8_name_names_entry(self):
        data = write_weights([("a", np.zeros(1, dtype=np.float32)),
                              ("bc", np.zeros(1, dtype=np.float32))])
        # The header, then entry "a": name length, name, dtype and rank, one dim, payload.
        second = 12 + 2 + 1 + 2 + 4 + 4
        data = data[: second + 2] + b"\xff\xfe" + data[second + 4 :]
        with pytest.raises(FormatError, match=f"name of entry 1 at byte {second} is not valid"):
            read_weights(data)

    @pytest.mark.parametrize("dims", [(0,) * 65, (0, 2**31, 2**31)],
                             ids=["rank65", "zero-beside-huge"])
    def test_unrepresentable_dims_name_entry(self, dims):
        data = (b"Y11W" + struct.pack("<IIH", 1, 1, 1) + b"w"
                + struct.pack(f"<BB{len(dims)}I", 0, len(dims), *dims))
        with pytest.raises(FormatError, match="bad dims .* of entry 0 at byte 12"):
            read_weights(data)

    def test_scalar_rank_zero(self):
        out = read_weights(write_weights([("s", np.float32(2.5))]))
        assert out[0][1].shape == ()
        assert out[0][1] == np.float32(2.5)


MINIMAL_ANNS = """
{
  "images": [{"id": 1, "width": 64, "height": 48}],
  "annotations": [{"id": 10, "image_id": 1, "category_id": 2, "bbox": [4, 5, 10, 12]}],
  "categories": [{"id": 2, "name": "thing"}]
}
"""


class TestAnnotations:
    def test_minimal_roundtrip(self):
        anns = read_annotations(MINIMAL_ANNS)
        assert anns.images[0].width == 64
        assert anns.annotations[0].bbox == (4.0, 5.0, 10.0, 12.0)
        assert anns.categories[0].name == "thing"

    def test_unknown_image_id(self):
        bad = MINIMAL_ANNS.replace('"image_id": 1', '"image_id": 99')
        with pytest.raises(FormatError, match="unknown image_id 99"):
            read_annotations(bad)

    def test_unknown_category_id(self):
        bad = MINIMAL_ANNS.replace('"category_id": 2,', '"category_id": 77,')
        with pytest.raises(FormatError, match="unknown category_id 77"):
            read_annotations(bad)

    def test_negative_box_dims(self):
        for bbox, message in [
            ("[4, 5, -10, 12]", "non-positive"),
            ("[4, 5, 10, 0]", "non-positive"),
            # nan <= 0 is False, so non-finite values need their own check.
            ("[NaN, 1, Infinity, 2]", "annotation 10 has a non-finite"),
            ("[4, 5, 10, NaN]", "annotation 10 has a non-finite"),
            ("[4, -Infinity, 10, 12]", "annotation 10 has a non-finite"),
            ("[4, 5, 1e999, 12]", "annotation 10 has a non-finite"),
        ]:
            bad = MINIMAL_ANNS.replace("[4, 5, 10, 12]", bbox)
            with pytest.raises(FormatError, match=message):
                read_annotations(bad)

    def test_invalid_json(self):
        with pytest.raises(FormatError, match="JSON"):
            read_annotations("{nope")

    def test_missing_section(self):
        with pytest.raises(FormatError, match="categories"):
            read_annotations('{"images": [], "annotations": []}')

    @pytest.mark.parametrize("text", ["5", "NaN", "null", '"images annotations categories"'])
    def test_top_level_must_be_an_object(self, text):
        with pytest.raises(FormatError, match="top-level value must be an object"):
            read_annotations(text)

    @pytest.mark.parametrize("old, new", [
        ('"id": 1,', '"id": Infinity,'),                  # int(inf) overflows
        ('"id": 2,', '"id": "two",'),                     # category id that is not a number
        ("[4, 5, 10, 12]", "[4, 5, 10, 1" + "0" * 400 + "]"),  # too large for a float
    ], ids=["infinite-id", "text-id", "huge-int-bbox"])
    def test_unconvertible_values_are_format_errors(self, old, new):
        with pytest.raises(FormatError, match="bad (image|category|annotation) record"):
            read_annotations(MINIMAL_ANNS.replace(old, new))

    @pytest.mark.parametrize("old, new", [
        ('"id": 1,', '"id": 2.9,'),                       # image id
        ('"width": 64', '"width": "64"'),
        ('"height": 48', '"height": true'),
        ('"id": 2,', '"id": true,'),                      # category id
        ('"name": "thing"', '"name": 7'),
        ('"id": 10,', '"id": 10.0,'),                     # annotation id
        ('"image_id": 1', '"image_id": 1.0'),
        ('"category_id": 2', '"category_id": "2"'),
        ("[4, 5, 10, 12]", '[4, "5", 10, 12]'),
        ("[4, 5, 10, 12]", "[4, 5, true, 12]"),
        ("[4, 5, 10, 12]", '"4512"'),
    ])
    def test_mistyped_fields_are_format_errors(self, old, new):
        # Ids, width and height must be JSON integers, bbox values JSON
        # numbers and a name a string; nothing is coerced, a bool included.
        bad = MINIMAL_ANNS.replace(old, new)
        assert bad != MINIMAL_ANNS
        with pytest.raises(FormatError, match="bad (image|category|annotation) record"):
            read_annotations(bad)

    def test_duplicate_annotation_id(self):
        # A repeated record would count its ground truth twice.
        doc = json.loads(MINIMAL_ANNS)
        doc["annotations"].append(dict(doc["annotations"][0]))
        with pytest.raises(FormatError, match="duplicate annotation id"):
            read_annotations(json.dumps(doc))

    def test_impossible_image_or_box_rejected(self):
        doc = json.loads(MINIMAL_ANNS)  # image 64x48
        for width, height in [(-5, 0), (0, 48), (64, 0)]:
            doc["images"][0].update(width=width, height=height)
            with pytest.raises(FormatError, match="image 1 has non-positive size"):
                read_annotations(json.dumps(doc))
        doc["images"][0].update(width=64, height=48)
        for bbox in ([400, 500, 10, 12], [64, 5, 10, 12], [4, 48, 10, 12],
                     [-10, 5, 10, 12], [4, -12.5, 10, 12.5]):
            doc["annotations"][0]["bbox"] = bbox
            with pytest.raises(FormatError, match="annotation 10 lies wholly outside image 1"):
                read_annotations(json.dumps(doc))
        # A box that overlaps its image by any amount stays legal.
        for bbox in ([60, 40, 10, 12], [-9.99, -11.99, 10, 12], [63.99, 47.99, 0.01, 0.01]):
            doc["annotations"][0]["bbox"] = bbox
            assert read_annotations(json.dumps(doc)).annotations[0].bbox == tuple(bbox)

    @pytest.mark.parametrize("reader", [read_annotations, read_detections])
    @pytest.mark.parametrize("text", ["[" * 100000, "1" * 5000], ids=["deep", "long-int"])
    def test_unparsable_json_is_format_error(self, reader, text):
        with pytest.raises(FormatError, match="invalid JSON"):
            reader(text)


class TestDetectionDump:
    def test_xyxy_to_xywh_and_fixed_formatting(self):
        # Internal (10, 20, 30, 60) becomes dump bbox [10, 20, 20, 40].
        x1, y1, x2, y2 = 10.0, 20.0, 30.0, 60.0
        d = DumpDetection(1, 3, (x1, y1, x2 - x1, y2 - y1), 0.9)
        text = write_detections([d])
        assert '"bbox": [10.000000, 20.000000, 20.000000, 40.000000]' in text
        assert '"score": 0.900000' in text

    def test_empty_list(self):
        assert write_detections([]) == "[]\n"
        assert read_detections("[]\n") == []

    def test_roundtrip(self):
        dets = [
            DumpDetection(0, 1, (1.25, 2.5, 3.75, 4.0), 0.125),
            DumpDetection(2, 0, (0.0, 0.0, 10.0, 10.0), 1.0),
            DumpDetection(3, 2, (639.0, 5.0, 0.0, 0.0), 0.5),  # clipped to zero size
        ]
        out = read_detections(write_detections(dets))
        assert out == dets

    def test_valid_dump_takes_the_column_path(self, monkeypatch):
        # The record-by-record reader is only for naming a bad record; a valid
        # dump read through it would lose the column path's speed.
        def per_record(doc):
            raise AssertionError("a valid dump was read record by record")

        monkeypatch.setattr(io_formats, "_read_detection_records", per_record)
        rng = np.random.default_rng(15)
        n = 300
        xy = rng.integers(-40, 2560, size=(n, 2)) / 4
        wh = rng.integers(0, 1280, size=(n, 2)) / 4
        scores = rng.integers(0, 1001, size=n) / 1000
        wh[:2], scores[:2] = 0.0, (0.0, 1.0)  # every bound, each met exactly
        dets = [DumpDetection(int(i), int(c), (*map(float, p), *map(float, q)), float(s))
                for i, c, p, q, s in zip(rng.integers(0, 50, n), rng.integers(0, 80, n),
                                         xy, wh, scores)]
        out = read_detections(write_detections(dets))
        assert out == dets
        assert all(type(d) is DumpDetection for d in out)

    def test_byte_deterministic(self):
        dets = [DumpDetection(0, 1, (1.0, 2.0, 3.0, 4.0), 0.5)]
        assert write_detections(dets) == write_detections(dets)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", range(5))  # bbox x, y, w, h, then score
    def test_non_finite_refused(self, bad, field):
        values = [1.0, 2.0, 3.0, 4.0, 0.5]
        values[field] = bad
        good = DumpDetection(0, 1, (1.0, 2.0, 3.0, 4.0), 0.5)
        with pytest.raises(FormatError, match="record 1 has a non-finite"):
            write_detections([good, DumpDetection(7, 1, tuple(values[:4]), values[4])])

    def test_score_range_enforced(self):
        with pytest.raises(FormatError, match="score"):
            read_detections('[{"image_id": 0, "category_id": 0, "bbox": [0,0,1,1], "score": 1.5}]')

    def test_score_range_error_names_the_record(self):
        good = '{"image_id": 0, "category_id": 0, "bbox": [0, 0, 1, 1], "score": 0.5}'
        for score in ("1.5", "-0.25"):
            bad = good.replace("0.5", score)
            message = rf"record 1 has a score outside \[0, 1\]: \{{.*'score': {score}\}}"
            with pytest.raises(FormatError, match=message):
                read_detections(f"[{good}, {bad}]")

    @pytest.mark.parametrize("field, value", [
        ("image_id", 1.7), ("image_id", True), ("category_id", "3"),
        ("bbox", ["1", 0, 1, 1]), ("bbox", [0, True, 1, 1]), ("bbox", "1234"),
        ("score", "0.5"), ("score", True),
    ])
    def test_mistyped_fields_are_format_errors(self, field, value):
        record = {"image_id": 0, "category_id": 0, "bbox": [0, 0, 1, 1], "score": 0.5}
        record[field] = value
        with pytest.raises(FormatError, match="bad record"):
            read_detections(json.dumps([record]))

    def test_bad_record(self):
        with pytest.raises(FormatError, match="bad record"):
            read_detections('[{"image_id": 0}]')
        record = '{"image_id": 0, "category_id": 0, "bbox": [0, 0, 1, 1], "score": 0.5}'
        for old, new in [('"image_id": 0', '"image_id": Infinity'),  # int(inf) overflows
                         ("[0, 0, 1, 1]", "[1" + "0" * 400 + ", 0, 1, 1]")]:  # float() overflows
            with pytest.raises(FormatError, match="bad record"):
                read_detections(f"[{record.replace(old, new)}]")
        good = '{"image_id": 0, "category_id": 0, "bbox": [0, 0, 1, 1], "score": 0.5}'
        for bbox, message in [
            ("[NaN, 0, 1, 1]", "record 1 has a non-finite"),
            ("[0, 0, Infinity, 1]", "record 1 has a non-finite"),
            ("[0, -Infinity, 1, 1]", "record 1 has a non-finite"),
            ("[0, 0, 1, 1e999]", "record 1 has a non-finite"),
            ("[0, 0, -1, 1]", "record 1 has negative"),
            ("[0, 0, 1, -0.5]", "record 1 has negative"),
        ]:
            bad = good.replace("[0, 0, 1, 1]", bbox)
            with pytest.raises(FormatError, match=message):
                read_detections(f"[{good}, {bad}]")
